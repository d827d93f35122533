import itertools
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import BENCH_ENTRIES, EDGE_WEIGHTS
from oracles import (
    I2,
    bloch_element,
    ce_elements_oracle,
    ce_povm_oracle,
    ce_projective_oracle,
    dense_xmatrix,
    povm_elements,
    random_unit_vector,
    random_xstate_entries,
    sample_weights,
)
from xdiscord.discord import (
    _plane_kernel,
    ali_candidate,
    conditional_entropy_povm3,
    conditional_entropy_projective,
    discord_given_conditional_entropy,
    e_function,
    plane_direction,
)
from xdiscord.entropy import LogBase
from xdiscord.errors import ZeroProbabilityError
from xdiscord.povm import EulerAngles, Povm3, PovmWeights, build_povm3
from xdiscord.qstate import bloch_params, xstate_from_entries

Z_AXIS = (0.0, 0.0, 1.0)
X_AXIS = (1.0, 0.0, 0.0)
Y_AXIS = (0.0, 1.0, 0.0)
# t1 = 0, t2 = -0.8: the best axis is y, and discord is 0
YAXIS_ENTRIES = (0.25, 0.25, 0.25, 0.25, 0.2, -0.2)
A_PLUS1_ENTRIES = (0.5, 0.0, 0.5, 0.0, 0.0, 0.0)


def random_povm(rng):
    w = sample_weights(rng)
    e = EulerAngles(*rng.uniform(0.0, 2.0 * math.pi, size=3))
    return build_povm3(w, e)


class TestEFunction:
    def test_maximally_mixed_vanishes(self, mixed_state, rng):
        for _ in range(20):
            assert e_function(mixed_state, random_unit_vector(rng)) == 0.0

    def test_pure_b_coefficient_state(self):
        # A = 0, B = 0.5, all t_i = 0: only the constant term survives
        s = xstate_from_entries(0.375, 0.375, 0.125, 0.125, 0.0, 0.0)
        assert_allclose(e_function(s, Z_AXIS), 0.5, atol=1e-15)

    def test_rho1_z_axis_closed_form(self, bench_states):
        s = bench_states["rho1"]
        bp = bloch_params(s)
        expected = abs(bp.t3 + bp.B) / (1.0 + bp.A)
        assert_allclose(e_function(s, Z_AXIS), expected, atol=1e-14)

    def test_sign_symmetry_in_xy(self, bench_states, rng):
        s = bench_states["rho2"]
        for _ in range(200):
            m = random_unit_vector(rng)
            flipped_x = (-m[0], m[1], m[2])
            flipped_y = (m[0], -m[1], m[2])
            assert abs(e_function(s, m) - e_function(s, flipped_x)) <= 1e-15
            assert abs(e_function(s, m) - e_function(s, flipped_y)) <= 1e-15

    def test_zero_probability_error(self):
        s = xstate_from_entries(0.0, 0.5, 0.0, 0.5, 0.0, 0.0)  # A = -1
        with pytest.raises(ZeroProbabilityError):
            e_function(s, Z_AXIS)

    def test_non_unit_direction_rejected(self, mixed_state):
        with pytest.raises(ValueError):
            e_function(mixed_state, (1.0, 1.0, 0.0))

    @pytest.mark.parametrize("m", [(0.0, 0.0, 0.0, 1.0), (0.0, 1.0), [[0.0, 0.0, 1.0]]])
    def test_non_3_vector_rejected(self, bench_states, m):
        # a unit 4-vector or a 1x3 row is not a direction
        for f in (e_function, conditional_entropy_projective):
            with pytest.raises(ValueError, match="3 components"):
                f(bench_states["rho1"], m)

    def test_clamped_to_unit_interval(self, rng):
        for _ in range(500):
            s = xstate_from_entries(*random_xstate_entries(rng))
            m = random_unit_vector(rng)
            try:
                e = e_function(s, m)
            except ZeroProbabilityError:
                continue
            assert 0.0 <= e <= 1.0


class TestConditionalEntropyPovm3:
    def test_maximally_mixed_gives_one_bit(self, mixed_state, rng):
        for _ in range(20):
            p = random_povm(rng)
            assert_allclose(
                conditional_entropy_povm3(mixed_state, p, LogBase.BITS), 1.0, atol=1e-12
            )

    def test_bell_state_trine_matches_brute_force(self, bell_state):
        # post-measurement states of a maximally entangled state are
        # pure, so every outcome term vanishes
        p = build_povm3(
            PovmWeights(1 / 3, 1 / 3, 1 / 3), EulerAngles(0.0, 0.0, 0.0)
        )
        got = conditional_entropy_povm3(bell_state, p, LogBase.BITS)
        dense = ce_povm_oracle(
            dense_xmatrix(0.5, 0.0, 0.0, 0.5, 0.5, 0.0), [1 / 3, 1 / 3, 1 / 3], p.dirs
        )
        assert_allclose(got, dense, atol=1e-10)
        assert_allclose(got, 0.0, atol=1e-10)

    def test_probability_closure(self, rng):
        for _ in range(1000):
            rho = dense_xmatrix(*random_xstate_entries(rng))
            p = random_povm(rng)
            probs = [np.trace(np.kron(I2, m) @ rho).real for m in povm_elements(p)]
            assert_allclose(sum(probs), 1.0, atol=1e-10)

    def test_element_permutation_invariance(self, bench_states, rng):
        s = bench_states["rho1"]
        for _ in range(100):
            p = random_povm(rng)
            base_val = conditional_entropy_povm3(s, p, LogBase.BITS)
            mus = p.weights.as_array()
            for perm in ((1, 2, 0), (2, 0, 1), (0, 2, 1), (1, 0, 2), (2, 1, 0)):
                q = Povm3(
                    weights=PovmWeights(*(mus[i] for i in perm)),
                    dirs=p.dirs[list(perm)],
                )
                assert abs(conditional_entropy_povm3(s, q, LogBase.BITS) - base_val) <= 1e-14

    @pytest.mark.criterion(7)
    def test_dense_oracle_equivalence(self, rng):
        cases = []
        for _ in range(1000):
            cases.append((random_xstate_entries(rng), random_povm(rng), 1e-10))
        # weight triples at the edge of the region, in every order (the
        # angles are measured from direction 1), on the bundled states and A = 1
        triples = {mus for w in EDGE_WEIGHTS.values() for mus in itertools.permutations(w)}
        for mus in sorted(triples):
            for entries in (*BENCH_ENTRIES.values(), A_PLUS1_ENTRIES):
                for e in rng.uniform(0.0, 2.0 * math.pi, size=(20, 3)):
                    cases.append((entries, build_povm3(PovmWeights(*mus), EulerAngles(*e)), 1e-12))
        for entries, p, tol in cases:
            s = xstate_from_entries(*entries)
            ours = conditional_entropy_povm3(s, p, LogBase.BITS)
            dense = ce_povm_oracle(dense_xmatrix(*entries), p.weights.as_array(), p.dirs)
            assert_allclose(ours, dense, rtol=0.0, atol=tol)

    def test_projective_limit(self, bench_states, rng):
        s = bench_states["rho3"]
        eta = 1e-6
        w = PovmWeights(0.5 - eta, 0.5 - eta, 2.0 * eta)
        for _ in range(20):
            e = EulerAngles(*rng.uniform(0.0, 2.0 * math.pi, size=3))
            p = build_povm3(w, e)
            n = p.dirs[0]
            three = conditional_entropy_povm3(s, p, LogBase.BITS)
            two = conditional_entropy_projective(s, n, LogBase.BITS)
            assert abs(three - two) <= 1e-4


class TestConditionalEntropyProjective:
    def test_maximally_mixed_gives_one_bit(self, mixed_state, rng):
        for _ in range(20):
            n = random_unit_vector(rng)
            assert_allclose(
                conditional_entropy_projective(mixed_state, n, LogBase.BITS),
                1.0,
                atol=1e-12,
            )

    @pytest.mark.criterion(7)
    def test_dense_oracle_equivalence(self, rng):
        for _ in range(1000):
            entries = random_xstate_entries(rng)
            s = xstate_from_entries(*entries)
            n = random_unit_vector(rng)
            ours = conditional_entropy_projective(s, n, LogBase.BITS)
            dense = ce_projective_oracle(dense_xmatrix(*entries), n)
            assert_allclose(ours, dense, atol=1e-10)

    def test_antipodal_symmetry(self, bench_states, rng):
        s = bench_states["rho1"]
        for _ in range(100):
            n = random_unit_vector(rng)
            assert_allclose(
                conditional_entropy_projective(s, n, LogBase.BITS),
                conditional_entropy_projective(s, -n, LogBase.BITS),
                atol=1e-14,
            )

    def test_nan_direction_rejected(self, bench_states):
        with pytest.raises(ValueError):
            conditional_entropy_projective(bench_states["rho1"], (math.nan, 0.0, 1.0))

    def test_extreme_marginal_state(self):
        # A = -1 makes the +z outcome impossible; its term is 0
        s = xstate_from_entries(0.0, 0.5, 0.0, 0.5, 0.0, 0.0)
        val = conditional_entropy_projective(s, Z_AXIS, LogBase.BITS)
        assert math.isfinite(val)


class TestPlaneKernel:
    def test_outcome_term_at_least_plane_term(self, rng):
        # one outcome's term g(m) = (1 + A mz) h(E(m)), from the dense
        # oracle, is never below G(mz), and is G(mz) on the plane of the
        # solves: the premise of the dual bound that certifies delta3_min
        for _ in range(200):
            entries = random_xstate_entries(rng)
            s = xstate_from_entries(*entries)
            rho4 = dense_xmatrix(*entries)
            g_plane = _plane_kernel(s, LogBase.BITS)
            for _ in range(10):
                m = random_unit_vector(rng)
                g = ce_elements_oracle(rho4, [bloch_element(1.0, m)])
                assert g >= g_plane(m[2]) - 1e-12
                n = plane_direction(s, m[2])
                assert abs(ce_elements_oracle(rho4, [bloch_element(1.0, n)]) - g_plane(m[2])) <= 1e-12


class TestDiscordAssembly:
    @pytest.mark.criterion(8)
    def test_maximally_mixed_zero(self, mixed_state):
        dv = discord_given_conditional_entropy(mixed_state, 1.0, None, LogBase.BITS)
        assert_allclose(dv.value, 0.0, atol=1e-12)

    @pytest.mark.criterion(8)
    def test_bell_state_one_bit(self, bell_state):
        # the projective conditional entropy is 0 everywhere, checked by
        # brute force in test_acceptance.test_bell_discord_one_bit
        dv = discord_given_conditional_entropy(bell_state, 0.0, None, LogBase.BITS)
        assert_allclose(dv.value, 1.0, atol=1e-12)

    def test_identity_invariant(self, bench_states):
        from xdiscord.entropy import marginal_entropy_b, von_neumann_xstate

        s = bench_states["rho2"]
        ce = 0.123
        dv = discord_given_conditional_entropy(s, ce, None, LogBase.BITS)
        expected = (
            marginal_entropy_b(s, LogBase.BITS) - von_neumann_xstate(s, LogBase.BITS) + ce
        )
        assert dv.value == expected
        assert dv.conditional_entropy == ce

    def test_negative_ce_rejected(self, mixed_state):
        with pytest.raises(ValueError):
            discord_given_conditional_entropy(mixed_state, -0.5, None, LogBase.BITS)

    @pytest.mark.parametrize("ce", [math.nan, math.inf])
    def test_non_finite_ce_rejected(self, mixed_state, ce):
        with pytest.raises(ValueError):
            discord_given_conditional_entropy(mixed_state, ce, None, LogBase.BITS)


class TestAliCandidate:
    @pytest.mark.criterion(1)
    def test_benchmark_values_bits(self, bench_states):
        targets = {"rho1": 0.127575, "rho2": 0.108773, "rho3": 0.132751}
        for name, target in targets.items():
            dv = ali_candidate(bench_states[name], LogBase.BITS)
            assert abs(dv.value - target) <= 1e-5

    def test_benchmark_values_nats(self, bench_states):
        targets = {"rho1": 0.088428, "rho2": 0.075396, "rho3": 0.092016}
        for name, target in targets.items():
            dv = ali_candidate(bench_states[name], LogBase.NATS)
            assert abs(dv.value - target) <= 1e-5 * math.log(2.0)

    def test_witness_is_one_of_the_axes(self, bench_states):
        axes = {"x": X_AXIS, "y": Y_AXIS, "z": Z_AXIS}
        yaxis = xstate_from_entries(*YAXIS_ENTRIES)
        for s in [*bench_states.values(), yaxis]:
            dv = ali_candidate(s, LogBase.BITS)
            assert dv.witness["axis"] in axes
            assert tuple(dv.witness["direction"]) == axes[dv.witness["axis"]]
        assert ali_candidate(yaxis, LogBase.BITS).witness["axis"] == "y"

    def test_value_is_min_over_axes(self, rng):
        for _ in range(200):
            s = xstate_from_entries(*random_xstate_entries(rng))
            dv = ali_candidate(s, LogBase.BITS)
            ce_z = conditional_entropy_projective(s, Z_AXIS, LogBase.BITS)
            ce_x = conditional_entropy_projective(s, X_AXIS, LogBase.BITS)
            ce_y = conditional_entropy_projective(s, Y_AXIS, LogBase.BITS)
            assert_allclose(dv.conditional_entropy, min(ce_z, ce_x, ce_y), atol=1e-15)

    def test_base_consistency(self, bench_states):
        for s in bench_states.values():
            bits = ali_candidate(s, LogBase.BITS).value
            nats = ali_candidate(s, LogBase.NATS).value
            assert_allclose(nats, bits * math.log(2.0), atol=1e-12)
