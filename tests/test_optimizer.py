import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import (
    BENCH_ENTRIES,
    WORST_BC_ENTRIES,
    WORST_ENTRIES,
    edge_xstates,
    positive_xstates,
)
from oracles import (
    PHI_POINTS,
    RANK2_FAMILIES,
    ce_povm_oracle,
    dense_xmatrix,
    dual_bound,
    kw_conditional_entropy,
    phi_audit,
    random_unit_vector,
    rank2_entries,
    random_xstate_entries,
)
from xdiscord import optimizer
from xdiscord.discord import (
    ali_candidate,
    conditional_entropy_mirror,
    conditional_entropy_plane,
    conditional_entropy_povm3,
    conditional_entropy_projective,
    discord_given_conditional_entropy,
    mirror_weights,
    plane_direction,
)
from xdiscord.entropy import LogBase
from xdiscord.optimizer import (
    MIRROR_T_HI,
    MIRROR_T_LO,
    REFINE_POINTS,
    OptResult,
    SearchConfig,
    _mirror_t,
    _plane_euler,
    minimize_povm3,
    minimize_projective,
)
from xdiscord.povm import PovmWeights, build_povm3
from xdiscord.qstate import xstate_from_entries

CFG = SearchConfig()


def discord_of(s, ce, base=LogBase.BITS):
    return discord_given_conditional_entropy(s, ce, None, base).value


class TestSearchConfig:
    def test_defaults_valid(self):
        cfg = SearchConfig()
        assert cfg.n_global_samples == 2001

    def test_bad_counts_rejected(self):
        with pytest.raises(ValueError):
            SearchConfig(n_global_samples=0)
        with pytest.raises(ValueError):
            # a scan must hold both ends of its interval
            SearchConfig(n_global_samples=1)
        for n in (2, 3):
            with pytest.raises(ValueError):
                # the best point's two neighbouring cells span the whole scan
                SearchConfig(n_global_samples=n)


class TestKernels:
    def test_plane_kernel_matches_public_path(self, rng):
        # |t1| > |t2| puts the plane on x; the eps-flipped partner swaps
        # t1 and t2 and puts it on y
        a, b, c, d, eps, delta = 0.3, 0.2, 0.1, 0.4, 0.25, 0.1
        for e, axis in ((eps, 0), (-eps, 1)):
            s = xstate_from_entries(a, b, c, d, e, delta)
            nz = np.concatenate([[0.0, 1.0], rng.uniform(0.0, 1.0, size=200)])
            kernel = conditional_entropy_plane(s, nz, LogBase.BITS)
            for z, k in zip(nz, kernel):
                n = plane_direction(s, z)
                assert n[1 - axis] == 0.0 and n[axis] >= 0.0
                public = conditional_entropy_projective(s, n, LogBase.BITS)
                assert_allclose(k, public, atol=1e-12)

    def test_mirror_kernel_matches_public_path(self, bench_states, rng):
        # the eps-flipped partner puts the mirror pair on y; t runs over
        # both halves and the ends of the interval minimize_povm3 solves
        ts = np.concatenate([
            [MIRROR_T_LO, MIRROR_T_HI, -MIRROR_T_LO, -MIRROR_T_HI],
            rng.uniform(-1.0, 1.0, size=50),
        ])
        a, b, c, d, eps, delta = 0.3, 0.2, 0.1, 0.4, 0.25, 0.1
        a_plus1 = xstate_from_entries(0.5, 0.0, 0.5, 0.0, 0.0, 0.0)
        for s in [
            *bench_states.values(), a_plus1,
            xstate_from_entries(a, b, c, d, eps, delta),
            xstate_from_entries(a, b, c, d, -eps, delta),
        ]:
            kernel = conditional_entropy_mirror(s, ts, LogBase.BITS)
            for t, k in zip(ts, kernel):
                mu1, mu2 = mirror_weights(t)
                pole = math.copysign(1.0, t)
                p = build_povm3(PovmWeights(mu1, mu2, mu2), _plane_euler(s, (0.0, 0.0, pole)))
                assert_allclose(p.dirs[0], (0.0, 0.0, pole), atol=1e-15)
                public = conditional_entropy_povm3(s, p, LogBase.BITS)
                assert_allclose(k, public, rtol=0.0, atol=1e-14)

    def test_mirror_ends_are_the_axis_measurements(self, bench_states):
        for s in bench_states.values():
            mirror = conditional_entropy_mirror(s, (0.0, 1.0, -1.0), LogBase.BITS)
            plane = conditional_entropy_plane(s, (0.0, 1.0, 1.0), LogBase.BITS)
            assert_allclose(mirror, plane, rtol=0.0, atol=1e-15)


class TestObjectiveSeams:
    """The mirror objective meets the plane one exactly, with ==: at
    t = +-0 it is the transverse-axis measurement, at t = +-1 the z
    axis, whichever pole side the sign of t picks."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.one_of(positive_xstates(), edge_xstates()))
    @example((0.5, 0.0, 0.5, 0.0, 0.0, 0.0))  # A = 1
    @example((0.0, 0.5, 0.0, 0.5, 0.0, 0.0))  # A = -1
    @example((1.0, 0.0, 0.0, 0.0, 0.0, 0.0))  # A = 1, pure
    def test_mirror_meets_plane(self, entries):
        s = xstate_from_entries(*entries)
        for base in LogBase:
            transverse = conditional_entropy_plane(s, 0.0, base)
            z_axis = conditional_entropy_plane(s, 1.0, base)
            for t, plane in ((0.0, transverse), (-0.0, transverse), (1.0, z_axis), (-1.0, z_axis)):
                assert conditional_entropy_mirror(s, t, base) == plane, (t, base)


class TestMinimizeProjective:
    def test_maximally_mixed_constant(self, mixed_state):
        res = minimize_projective(mixed_state, CFG)
        assert_allclose(res.best_value, 1.0, atol=1e-12)
        assert res.converged
        assert res.best_direction is not None

    @pytest.mark.criterion(1)
    def test_benchmark_discord_values(self, bench_states):
        targets = {"rho1": 0.124623, "rho2": 0.107948, "rho3": 0.132741}
        for name, target in targets.items():
            s = bench_states[name]
            res = minimize_projective(s, SearchConfig())
            assert abs(discord_of(s, res.best_value) - target) <= 5e-5

    @pytest.mark.criterion(7)
    def test_deterministic(self, bench_states):
        s = bench_states["rho1"]
        r1 = minimize_projective(s, SearchConfig())
        r2 = minimize_projective(s, SearchConfig())
        assert r1.best_value == r2.best_value
        assert r1.best_direction == r2.best_direction
        assert r1.n_evals == r2.n_evals

    def test_direction_is_unit(self, bench_states):
        res = minimize_projective(bench_states["rho3"], CFG)
        assert_allclose(np.linalg.norm(res.best_direction), 1.0, atol=1e-12)

    def test_never_above_axis_candidates(self, rng):
        for _ in range(10):
            s = xstate_from_entries(*random_xstate_entries(rng))
            res = minimize_projective(s, CFG)
            for n in ((0.0, 0.0, 1.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0)):
                assert res.best_value <= conditional_entropy_projective(s, n) + 1e-12


PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)


class TestProjectiveProperties:
    @PROPERTY_SETTINGS
    @given(positive_xstates())
    def test_invariant_under_eps_flip(self, entries):
        a, b, c, d, eps, delta = entries
        s = xstate_from_entries(*entries)
        flipped = xstate_from_entries(a, b, c, d, -eps, delta)
        assert_allclose(
            minimize_projective(flipped, CFG).best_value,
            minimize_projective(s, CFG).best_value,
            rtol=0.0, atol=1e-12,
        )
        assert_allclose(
            ali_candidate(flipped).conditional_entropy,
            ali_candidate(s).conditional_entropy,
            rtol=0.0, atol=1e-12,
        )

    @PROPERTY_SETTINGS
    @given(positive_xstates())
    def test_never_above_ali_candidate(self, entries):
        s = xstate_from_entries(*entries)
        assert minimize_projective(s, CFG).best_value <= ali_candidate(s).conditional_entropy

    @PROPERTY_SETTINGS
    @given(positive_xstates(), st.integers(0, 2**32 - 1))
    def test_never_above_random_directions(self, entries, seed):
        s = xstate_from_entries(*entries)
        rng = np.random.default_rng(seed)
        sampled = min(
            conditional_entropy_projective(s, random_unit_vector(rng)) for _ in range(300)
        )
        assert minimize_projective(s, CFG).best_value <= sampled + 1e-12


class TestMinimizePovm3:
    @pytest.mark.criterion(1)
    def test_benchmark_discord_values(self, bench_states):
        targets = {"rho1": 0.123010, "rho2": 0.107873, "rho3": 0.132730}
        for name, target in targets.items():
            s = bench_states[name]
            res = minimize_povm3(s, SearchConfig())
            assert abs(discord_of(s, res.best_value) - target) <= 1e-4
            assert res.converged

    @pytest.mark.criterion(7)
    def test_deterministic(self, bench_states):
        s = bench_states["rho2"]
        r1 = minimize_povm3(s, CFG)
        r2 = minimize_povm3(s, CFG)
        assert r1.best_value == r2.best_value
        assert r1.best_weights == r2.best_weights
        assert r1.best_euler == r2.best_euler
        assert r1.n_evals == r2.n_evals

    def test_precomputed_projective_is_bit_identical(self, rng):
        s = xstate_from_entries(*random_xstate_entries(rng))
        for base in LogBase:
            own = minimize_povm3(s, CFG, base)
            passed = minimize_povm3(s, CFG, base, minimize_projective(s, CFG, base))
            assert own.base is passed.base is base
            assert own.best_value == passed.best_value
            assert own.best_weights == passed.best_weights
            assert own.best_euler == passed.best_euler
            assert own.n_evals == passed.n_evals

    def test_proj_without_direction_rejected(self, bench_states):
        s = bench_states["rho1"]
        # a 3-element result: its witness is weights and angles, not an axis
        wrong = minimize_povm3(s, CFG)
        with pytest.raises(ValueError, match="minimize_projective"):
            minimize_povm3(s, CFG, LogBase.BITS, wrong)

    def test_proj_of_other_base_rejected(self, bench_states):
        # rho1's projective value in nats is below its mirror value in
        # bits, so a nats proj would win against the bits solve
        s = bench_states["rho1"]
        nats = minimize_projective(s, CFG, LogBase.NATS)
        assert nats.base is LogBase.NATS
        with pytest.raises(ValueError, match="bits"):
            minimize_povm3(s, CFG, LogBase.BITS, nats)

    def test_witness_reproduces_value(self, bench_states):
        s = bench_states["rho1"]
        res = minimize_povm3(s, CFG)
        p = build_povm3(res.best_weights, res.best_euler)
        assert_allclose(
            conditional_entropy_povm3(s, p, LogBase.BITS), res.best_value, atol=1e-9
        )

    def test_witnesses_lie_in_the_solve_plane(self, bench_states, rng):
        # mirror witnesses on both planes, from the advantage states and
        # their eps-flipped partners, and projective ones from random states
        states = [*bench_states.values()]
        for s in [*advantage_states(3, seed=2), *(
            xstate_from_entries(*random_xstate_entries(rng)) for _ in range(10)
        )]:
            states += [s, xstate_from_entries(s.a, s.b, s.c, s.d, -s.eps, s.delta)]
        n_mirror = 0
        for s in states:
            proj = minimize_projective(s, CFG)
            res = minimize_povm3(s, CFG, proj=proj)
            p = build_povm3(res.best_weights, res.best_euler)
            mirror = res.best_value < proj.best_value
            n_mirror += mirror
            pole = (0.0, 0.0, math.copysign(1.0, p.dirs[0, 2]))
            assert_allclose(p.dirs[0], pole if mirror else proj.best_direction, atol=1e-12)
            off_plane = 1 if plane_direction(s, 0.0)[1] == 0.0 else 0
            assert np.abs(p.dirs[:, off_plane]).max() <= 1e-15
            tol = 1e-14 if mirror else 1e-8
            assert abs(conditional_entropy_povm3(s, p) - res.best_value) <= tol
        assert n_mirror >= 9

    @pytest.mark.criterion(7)
    def test_dominance_chain_on_benchmarks(self, bench_states):
        for s in bench_states.values():
            d3 = minimize_povm3(s, SearchConfig()).best_value
            d2m = minimize_projective(s, SearchConfig()).best_value
            d2 = ali_candidate(s).conditional_entropy
            assert d3 <= d2m + 1e-9
            assert d2m <= d2 + 1e-9

    def test_nonnegative_discord_on_random_states(self, rng):
        for _ in range(10):
            s = xstate_from_entries(*random_xstate_entries(rng))
            res = minimize_povm3(s, SearchConfig(n_global_samples=1000))
            assert discord_of(s, res.best_value) >= -1e-8


WITNESS_SETTINGS = settings(max_examples=10, deadline=None, derandomize=True, database=None)


def povm3_solve(entries):
    """(delta3_min, delta2_min, delta2) of the state with these entries
    and its minimize_povm3 result."""
    s = xstate_from_entries(*entries)
    proj = minimize_projective(s, CFG)
    povm = minimize_povm3(s, CFG, proj=proj)
    discords = discord_of(s, povm.best_value), discord_of(s, proj.best_value)
    return (*discords, ali_candidate(s).value), povm


def povm3_discords(entries):
    """delta3_min, delta2_min and delta2 of the state with these entries."""
    return povm3_solve(entries)[0]


class TestPovm3Properties:
    @WITNESS_SETTINGS
    @given(positive_xstates())
    def test_witness_rebuilds_and_reproduces_value(self, entries):
        s = xstate_from_entries(*entries)
        res = minimize_povm3(s, CFG)
        p = build_povm3(res.best_weights, res.best_euler)
        assert abs(conditional_entropy_povm3(s, p, LogBase.BITS) - res.best_value) <= 1e-8

    @PROPERTY_SETTINGS
    @given(positive_xstates())
    def test_invariant_under_eps_flip(self, entries):
        a, b, c, d, eps, delta = entries
        flipped = povm3_discords((a, b, c, d, -eps, delta))[0]
        assert abs(flipped - povm3_discords(entries)[0]) <= 1e-15

    @PROPERTY_SETTINGS
    @given(positive_xstates())
    def test_dominance_chain_exact(self, entries):
        d3, d2m, d2 = povm3_discords(entries)
        assert d3 <= d2m <= d2

    @PROPERTY_SETTINGS
    @given(positive_xstates())
    def test_discord_nonnegative(self, entries):
        assert min(povm3_discords(entries)) >= -1e-12


DENSE_POINTS = 200_001


# the default first scan, and first scans of fewer than REFINE_POINTS
# points, after which every scan has the first's size
SCAN_CONFIGS = [CFG, *(SearchConfig(n_global_samples=n) for n in (57, 5, 4))]
# an incumbent that never wins leaves the mirror solve's own result
NEVER = OptResult(math.inf, 0, False, LogBase.BITS, best_direction=(0.0, 0.0, 1.0))


class TestSolve1dProperties:
    """Each 1-D solve is never above a dense scan of its own objective."""

    @PROPERTY_SETTINGS
    @given(positive_xstates())
    def test_projective_solve(self, entries):
        s = xstate_from_entries(*entries)
        dense = conditional_entropy_plane(s, np.linspace(0.0, 1.0, DENSE_POINTS)).min()
        for cfg in SCAN_CONFIGS:
            res = minimize_projective(s, cfg)
            assert res.converged
            assert res.best_value <= dense + 1e-12, cfg

    @PROPERTY_SETTINGS
    @given(positive_xstates())
    def test_mirror_solve(self, entries):
        s = xstate_from_entries(*entries)
        t = np.linspace(-MIRROR_T_HI, MIRROR_T_HI, DENSE_POINTS)
        dense = conditional_entropy_mirror(s, _mirror_t(t)).min()
        for cfg in SCAN_CONFIGS:
            res = minimize_povm3(s, cfg, proj=NEVER)
            assert res.converged
            assert res.best_value <= dense + 1e-12, cfg


class TestRefineSchedule:
    """Later scans of min(REFINE_POINTS, n) points against every scan of
    n points, the schedule REFINE_POINTS = n_global_samples restores:
    the results move at rounding level only."""

    @staticmethod
    def check_against_full_scans(entries, tol=1e-15):
        with mock.patch.object(optimizer, "REFINE_POINTS", CFG.n_global_samples):
            d3_full, d2m_full, d2_full = povm3_discords(entries)
        (d3, d2m, d2), povm = povm3_solve(entries)
        assert abs(d3 - d3_full) <= tol
        assert abs(d2m - d2m_full) <= tol
        assert d2 == d2_full
        s = xstate_from_entries(*entries)
        rebuilt = conditional_entropy_povm3(s, build_povm3(povm.best_weights, povm.best_euler))
        # a projective witness's third weight, 1 - 2 WEIGHT_HI ~ 1e-9, moves
        # its value by up to twice that
        assert abs(rebuilt - povm.best_value) <= 1e-8

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(positive_xstates())
    def test_generated_states(self, entries):
        self.check_against_full_scans(entries)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(edge_xstates())
    # A = -1 + 2e-15, where an outcome's probability vanishes within
    # 1e-15 of an end of the interval
    @example((2.4757990644926596e-16, 0.24757990644926567, 7.524200935507342e-16,
              0.7524200935507334, 0.0, 0.0))
    def test_edge_states(self, entries):
        self.check_against_full_scans(entries)

    def test_seeded_and_bundled_states(self, rng):
        corpus = [*BENCH_ENTRIES.values(), WORST_ENTRIES]
        corpus += [random_xstate_entries(rng) for _ in range(200)]
        for entries in corpus:
            self.check_against_full_scans(entries)


class TestScanBudget:
    @pytest.mark.parametrize("cfg", SCAN_CONFIGS, ids=lambda c: str(c.n_global_samples))
    def test_first_scan_full_later_scans_sized(self, bench_states, monkeypatch, cfg):
        sizes = []

        def counted(make):
            def objective(s, base):
                f = make(s, base)
                return lambda x: sizes.append(len(x)) or f(x)
            return objective

        for name in ("_plane_objective", "_mirror_objective"):
            monkeypatch.setattr(optimizer, name, counted(getattr(optimizer, name)))
        n, m = cfg.n_global_samples, min(REFINE_POINTS, cfg.n_global_samples)
        for s in bench_states.values():
            for solve in (minimize_projective, lambda s, cfg: minimize_povm3(s, cfg, proj=NEVER)):
                sizes.clear()
                res = solve(s, cfg)
                rounds = len(sizes)
                assert res.converged and rounds > 1
                assert sizes == [n] + [m] * (rounds - 1)
                assert res.n_evals == n + (rounds - 1) * m


def advantage_states(n_keep, seed, max_draws=400):
    """States like rho1 (small a and c, |eps| >= sqrt(a d) / 2) on which
    a POVM beats every projective measurement by more than 1e-9, drawn
    until n_keep are kept."""
    rng = np.random.default_rng(seed)
    kept = []
    for _ in range(max_draws):
        a, c = rng.uniform(0.0, 0.1, size=2)
        b = rng.uniform(0.0, 0.01)
        d = 1.0 - a - b - c
        eps = rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 1.0) * math.sqrt(a * d)
        delta = rng.uniform(-1.0, 1.0) * math.sqrt(b * c)
        s = xstate_from_entries(a, b, c, d, eps, delta)
        if minimize_povm3(s, CFG).best_value < minimize_projective(s, CFG).best_value - 1e-9:
            kept.append(s)
            if len(kept) == n_keep:
                break
    return kept


def certificate_gap(s):
    """minimize_povm3's value less the dual bound of its witness."""
    res = minimize_povm3(s, CFG)
    return res.best_value - dual_bound(s, res)


class TestCertificateGate:
    """delta3_min is certified against every POVM, with any number of
    outcomes: its value is within 1e-12 of oracles.dual_bound."""

    @staticmethod
    def assert_certified(states):
        for s in states:
            assert abs(certificate_gap(s)) <= 1e-12

    def test_random_states(self):
        rng = np.random.default_rng(2718)
        self.assert_certified([xstate_from_entries(*random_xstate_entries(rng)) for _ in range(20)])

    def test_povm_advantage_states(self):
        states = advantage_states(12, seed=1)
        assert len(states) == 12
        self.assert_certified(states)

    @pytest.mark.criterion(7)
    @pytest.mark.parametrize(
        "entries",
        [*BENCH_ENTRIES.values(), WORST_ENTRIES, WORST_BC_ENTRIES],
        ids=[*BENCH_ENTRIES, "worst_general", "worst_b_equals_c"],
    )
    def test_worst_case_states(self, entries):
        self.assert_certified([xstate_from_entries(*entries)])

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(st.one_of(positive_xstates(), edge_xstates()))
    def test_generated_states(self, entries):
        self.assert_certified([xstate_from_entries(*entries)])


class TestKoashiWinter:
    """On rank-2 states delta3_min's conditional entropy is the exact
    minimum over all POVMs, E_F(rho_AC) (oracles.kw_conditional_entropy)."""

    @pytest.mark.parametrize("family", RANK2_FAMILIES)
    def test_rank2_states(self, family):
        rng = np.random.default_rng(13)
        for _ in range(100):
            s = xstate_from_entries(*rank2_entries(rng, family))
            exact = kw_conditional_entropy(dense_xmatrix(s.a, s.b, s.c, s.d, s.eps, s.delta))
            assert abs(minimize_povm3(s, CFG).best_value - exact) <= 1e-12


class TestHeadlineBound:
    """The paper bounds delta2 - delta3_min by 0.004565 bits on general X
    states and by 0.0009 on symmetric ones; these states exceed both."""

    @pytest.mark.parametrize(
        "entries, bound", [(WORST_ENTRIES, 0.006349), (WORST_BC_ENTRIES, 0.00180)],
        ids=["general", "b_equals_c"],
    )
    def test_worst_case_gap_exceeds_paper_bound(self, entries, bound):
        s = xstate_from_entries(*entries)
        res = minimize_povm3(s, CFG)
        assert ali_candidate(s).value - discord_of(s, res.best_value) >= bound
        p = build_povm3(res.best_weights, res.best_euler)
        rho4 = dense_xmatrix(s.a, s.b, s.c, s.d, s.eps, s.delta)
        dense = ce_povm_oracle(rho4, res.best_weights.as_array(), p.dirs)
        assert abs(dense - res.best_value) <= 1e-12
        assert abs(certificate_gap(s)) <= 1e-12


@pytest.mark.criterion(6)
class TestPhiInvarianceAudit:
    @pytest.fixture(scope="class", params=list(BENCH_ENTRIES))
    def bench_audit(self, request, bench_states):
        s = bench_states[request.param]
        res = minimize_povm3(s, CFG)
        return res, phi_audit(s, res.best_weights)

    def test_maximally_mixed_spread_exactly_zero(self, mixed_state):
        values = phi_audit(mixed_state, minimize_povm3(mixed_state, CFG).best_weights)
        assert max(values) - min(values) == 0.0

    def test_benchmark_spread_small(self, bench_audit):
        values = bench_audit[1]
        assert max(values) - min(values) <= 1e-6
        assert len(values) == PHI_POINTS

    def test_report_values_near_optimum(self, bench_audit):
        res, values = bench_audit
        assert min(values) <= res.best_value + 1e-9
