import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import assert_each_close
from oracles import (
    dense_xmatrix,
    entropy_of_matrix,
    mutual_information_oracle,
    random_xstate_entries,
)
from xdiscord.entropy import (
    LogBase,
    binary_entropy,
    marginal_entropy_b,
    mutual_information,
    von_neumann_xstate,
)
from xdiscord.errors import DomainError
from xdiscord.qstate import xstate_from_entries

LN2 = math.log(2.0)


def _plogp(p):
    """p log p with 0 log 0 = 0 by a mask, kept apart from the
    package's mask-free rule."""
    out = np.zeros_like(p)
    mask = p > 0.0
    out[mask] = p[mask] * np.log(p[mask])
    return out

# independently derived: -(0.75 log2 0.75 + 0.25 log2 0.25)
H_HALF_BITS = 0.8112781244591328


class TestBinaryEntropy:
    def test_uniform(self):
        assert binary_entropy(0.0, LogBase.BITS) == 1.0

    def test_deterministic_ends(self):
        assert binary_entropy(1.0, LogBase.BITS) == 0.0
        assert binary_entropy(-1.0, LogBase.BITS) == 0.0

    def test_half(self):
        assert_allclose(binary_entropy(0.5, LogBase.BITS), H_HALF_BITS, rtol=1e-15)

    def test_nats_scaling(self):
        assert_allclose(binary_entropy(0.0, LogBase.NATS), LN2, rtol=1e-15)

    def test_even_function(self, rng):
        x = rng.uniform(-1.0, 1.0, size=1000)
        assert_allclose(binary_entropy(x), binary_entropy(-x), atol=1e-15)

    def test_clamps_just_past_one(self):
        assert binary_entropy(1.0 + 5e-10, LogBase.BITS) == 0.0

    def test_domain_error(self):
        with pytest.raises(DomainError):
            binary_entropy(1.0 + 1e-8, LogBase.BITS)

    @pytest.mark.parametrize("x", [math.nan, np.array([0.5, math.nan])])
    def test_nan_rejected(self, x):
        with pytest.raises(DomainError):
            binary_entropy(x, LogBase.BITS)

    def test_array_input(self):
        out = binary_entropy(np.array([0.0, 1.0]))
        assert_allclose(out, [1.0, 0.0], atol=1e-15)

    def test_range(self, rng):
        x = rng.uniform(-1.0, 1.0, size=1000)
        h = binary_entropy(x, LogBase.BITS)
        assert np.all((h >= 0.0) & (h <= 1.0))

    @pytest.mark.parametrize("base", list(LogBase))
    def test_bitwise_equal_to_masked_formula(self, base):
        # a mask-based 0 log 0, at the ends, at both zeros, one ulp
        # inside each end and the smallest subnormal
        ends = [1.0, -1.0, 0.0, -0.0, 1.0 - 2.0**-53, -(1.0 - 2.0**-53), 5e-324]
        x = np.concatenate([ends, np.linspace(-1.0, 1.0, 20001)])
        scale = 1.0 / LN2 if base is LogBase.BITS else 1.0
        masked = -(_plogp((1.0 + x) / 2.0) + _plogp((1.0 - x) / 2.0)) * scale
        assert binary_entropy(x, base).tobytes() == masked.tobytes()

    @pytest.mark.parametrize("x", [0.5, -1.0, 0, np.float64(0.25), np.array(0.5), np.array(-1.0)])
    def test_scalar_and_0d_return_float(self, x):
        assert type(binary_entropy(x)) is float

    @pytest.mark.parametrize(
        "x", [1.0 + 2e-9, -1.0 - 2e-9, math.inf, -math.inf, np.array([0.0, -1.0 - 2e-9])]
    )
    def test_beyond_tolerance_rejected(self, x):
        with pytest.raises(DomainError):
            binary_entropy(x, LogBase.BITS)


class TestVonNeumannXstate:
    def test_maximally_mixed(self, mixed_state):
        assert_allclose(von_neumann_xstate(mixed_state, LogBase.BITS), 2.0, atol=1e-15)

    def test_pure_bell(self, bell_state):
        assert_allclose(von_neumann_xstate(bell_state, LogBase.BITS), 0.0, atol=1e-12)

    @pytest.mark.parametrize(
        "entries",
        [
            (1.0, 0.0, 0.0, 0.0, 0.0, 0.0),
            (0.0, 1.0, 0.0, 0.0, 0.0, 0.0),
            (0.0, 0.0, 1.0, 0.0, 0.0, 0.0),
            (0.0, 0.0, 0.0, 1.0, 0.0, 0.0),
            (0.5, 0.0, 0.0, 0.5, 0.5, 0.0),
            (0.5, 0.0, 0.0, 0.5, -0.5, 0.0),
            (0.0, 0.5, 0.5, 0.0, 0.0, 0.5),
            (0.0, 0.5, 0.5, 0.0, 0.0, -0.5),
        ],
    )
    @pytest.mark.parametrize("base", list(LogBase))
    def test_pure_and_product_states_exactly_zero(self, entries, base):
        assert von_neumann_xstate(xstate_from_entries(*entries), base) == 0.0

    def test_rho1_matches_dense_oracle(self, bench_states):
        s = bench_states["rho1"]
        dense = entropy_of_matrix(dense_xmatrix(s.a, s.b, s.c, s.d, s.eps, s.delta))
        assert_allclose(von_neumann_xstate(s, LogBase.BITS), dense, atol=1e-12)

    @pytest.mark.criterion(7)
    def test_random_states_match_dense_oracle(self, rng):
        ours, dense = [], []
        for _ in range(10_000):
            e = random_xstate_entries(rng)
            ours.append(von_neumann_xstate(xstate_from_entries(*e), LogBase.BITS))
            dense.append(entropy_of_matrix(dense_xmatrix(*e)))
        # assert_allclose's default rtol
        assert_each_close(ours, dense, atol=1e-10, rtol=1e-7)

    def test_base_consistency(self, rng):
        for _ in range(1000):
            s = xstate_from_entries(*random_xstate_entries(rng))
            assert_allclose(
                von_neumann_xstate(s, LogBase.NATS),
                von_neumann_xstate(s, LogBase.BITS) * LN2,
                atol=1e-12,
            )


class TestMarginalEntropyB:
    def test_maximally_mixed(self, mixed_state):
        assert marginal_entropy_b(mixed_state, LogBase.BITS) == 1.0

    def test_pure_00(self):
        s = xstate_from_entries(1.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        assert marginal_entropy_b(s, LogBase.BITS) == 0.0

    def test_rho2_closed_form(self, bench_states):
        s = bench_states["rho2"]
        expected = binary_entropy(2.0 * 0.032014 - 1.0, LogBase.BITS)
        assert_allclose(marginal_entropy_b(s, LogBase.BITS), expected, atol=1e-12)


class TestMutualInformation:
    def test_maximally_mixed(self, mixed_state):
        assert_allclose(mutual_information(mixed_state, LogBase.BITS), 0.0, atol=1e-15)

    def test_bell_state(self, bell_state):
        assert_allclose(mutual_information(bell_state, LogBase.BITS), 2.0, atol=1e-12)

    def test_rho3_matches_dense_oracle(self, bench_states):
        s = bench_states["rho3"]
        dense = mutual_information_oracle(
            dense_xmatrix(s.a, s.b, s.c, s.d, s.eps, s.delta)
        )
        assert_allclose(mutual_information(s, LogBase.BITS), dense, atol=1e-10)

    def test_nonnegative(self, rng):
        states = [xstate_from_entries(*random_xstate_entries(rng)) for _ in range(10_000)]
        mi = [mutual_information(s, LogBase.BITS) for s in states]
        i = int(np.argmin(mi))
        assert mi[i] >= -1e-10, f"draw {i}: {mi[i]!r}"

    def test_base_consistency(self, rng):
        for _ in range(1000):
            s = xstate_from_entries(*random_xstate_entries(rng))
            assert_allclose(
                mutual_information(s, LogBase.NATS),
                mutual_information(s, LogBase.BITS) * LN2,
                atol=1e-12,
            )
