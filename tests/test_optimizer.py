import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import (
    BELL_ENTRIES,
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
    _mirror_objective,
    ali_candidate,
    conditional_entropy_plane,
    conditional_entropy_povm3,
    conditional_entropy_projective,
    discord_given_conditional_entropy,
    mirror_weights,
    plane_direction,
)
from xdiscord.entropy import LogBase
from xdiscord.errors import PositivityError
from xdiscord.optimizer import (
    CERT_TOL,
    MIRROR_T_HI,
    MIRROR_T_LO,
    REFINE_POINTS,
    OptResult,
    SearchConfig,
    _mirror_t,
    _plane_euler,
    _solve_1d,
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
        assert SearchConfig(n_global_samples=np.int64(57), n_refine_iters=np.int32(2))

    def test_bad_counts_rejected(self):
        # a scan must hold both ends of its interval, and its best point's
        # two neighbouring cells must not span the whole scan; a count
        # that is not an integer would scan 2002 points for 2001.5, or
        # fail only inside a solve
        bad = [{"n_global_samples": n} for n in (0, 1, 2, 3, 2001.5, 2001.0, math.nan)]
        bad += [{"n_refine_iters": n} for n in (0, 2.5)]
        for kwargs in bad:
            with pytest.raises(ValueError):
                SearchConfig(**kwargs)


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
            kernel = _mirror_objective(s, LogBase.BITS)(ts)
            for t, k in zip(ts, kernel):
                mu1, mu2 = mirror_weights(t)
                pole = math.copysign(1.0, t)
                p = build_povm3(PovmWeights(mu1, mu2, mu2), _plane_euler(s, (0.0, 0.0, pole)))
                assert_allclose(p.dirs[0], (0.0, 0.0, pole), atol=1e-15)
                public = conditional_entropy_povm3(s, p, LogBase.BITS)
                assert_allclose(k, public, rtol=0.0, atol=1e-14)


class TestObjectiveSeams:
    """The mirror objective meets the plane one exactly, with ==: at
    t = +-0 it is the transverse-axis measurement, at t = +-1 the z
    axis, whichever pole side the sign of t picks."""

    @settings(max_examples=200)
    @given(st.one_of(positive_xstates(), edge_xstates()))
    @example((0.5, 0.0, 0.5, 0.0, 0.0, 0.0))  # A = 1
    @example((0.0, 0.5, 0.0, 0.5, 0.0, 0.0))  # A = -1
    @example((1.0, 0.0, 0.0, 0.0, 0.0, 0.0))  # A = 1, pure
    @example(BENCH_ENTRIES["rho1"])
    @example(BENCH_ENTRIES["rho2"])
    @example(BENCH_ENTRIES["rho3"])
    # here (t3 mz + B) ** 2 at mz = 0 on a numpy scalar, libm pow, is 1 ulp
    # above the same square in an array: t = 0 meets the plane only because
    # the kernel squares by a product
    @example((0.04498404679321112, 0.0009967804072568078, 0.7590301812006257,
              0.19498899159890642, 0.0, 0.006876528980603915))
    def test_mirror_meets_plane(self, entries):
        s = xstate_from_entries(*entries)
        for base in LogBase:
            mirror = _mirror_objective(s, base)
            transverse = conditional_entropy_plane(s, 0.0, base)
            z_axis = conditional_entropy_plane(s, 1.0, base)
            for t, plane in ((0.0, transverse), (-0.0, transverse), (1.0, z_axis), (-1.0, z_axis)):
                assert mirror(t) == plane, (t, base)


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
        assert r1 == r2

    def test_direction_is_unit(self, bench_states):
        res = minimize_projective(bench_states["rho3"], CFG)
        assert_allclose(np.linalg.norm(res.best_direction), 1.0, atol=1e-12)


PROPERTY_SETTINGS = settings(max_examples=60)


class TestProjectiveProperties:
    @PROPERTY_SETTINGS
    @given(positive_xstates())
    def test_never_above_ali_candidate(self, entries):
        s = xstate_from_entries(*entries)
        best = minimize_projective(s, CFG).best_value
        assert best <= ali_candidate(s).conditional_entropy
        for n in ((0.0, 0.0, 1.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0)):
            assert best <= conditional_entropy_projective(s, n) + 1e-12

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
        assert r1 == r2

    def test_precomputed_projective_is_bit_identical(self, rng):
        s = xstate_from_entries(*random_xstate_entries(rng))
        for base in LogBase:
            own = minimize_povm3(s, CFG, base)
            passed = minimize_povm3(s, CFG, base, minimize_projective(s, CFG, base))
            assert own.base is base
            assert own == passed

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


def povm3_solve(entries, cfg=CFG):
    """(delta3_min, delta2_min, delta2) of the state with these entries
    and its minimize_povm3 result."""
    s = xstate_from_entries(*entries)
    proj = minimize_projective(s, cfg)
    povm = minimize_povm3(s, cfg, proj=proj)
    discords = discord_of(s, povm.best_value), discord_of(s, proj.best_value)
    return (*discords, ali_candidate(s).value), povm


def povm3_discords(entries, cfg=CFG):
    """delta3_min, delta2_min and delta2 of the state with these entries."""
    return povm3_solve(entries, cfg)[0]


class TestPovm3Properties:
    @pytest.mark.criterion(7)
    @PROPERTY_SETTINGS
    @given(positive_xstates())
    @example(BENCH_ENTRIES["rho1"])
    @example(BENCH_ENTRIES["rho2"])
    @example(BENCH_ENTRIES["rho3"])
    def test_dominance_chain_exact(self, entries):
        d3, d2m, d2 = povm3_discords(entries)
        assert d3 <= d2m <= d2


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
        dense = _mirror_objective(s, LogBase.BITS)(_mirror_t(t)).min()
        for cfg in SCAN_CONFIGS:
            res = minimize_povm3(s, cfg, proj=NEVER)
            assert res.converged
            assert res.best_value <= dense + 1e-12, cfg


class TestRefineSchedule:
    """Later scans of min(REFINE_POINTS, n) points against every scan of
    n points, the schedule REFINE_POINTS = n_global_samples restores:
    the results move at rounding level only. All three discords are
    nonnegative."""

    @staticmethod
    def check_against_full_scans(entries, cfg=CFG, tol=1e-15):
        with mock.patch.object(optimizer, "REFINE_POINTS", CFG.n_global_samples):
            d3_full, d2m_full, d2_full = povm3_discords(entries, cfg)
        (d3, d2m, d2), povm = povm3_solve(entries, cfg)
        assert abs(d3 - d3_full) <= tol
        assert abs(d2m - d2m_full) <= tol
        assert d2 == d2_full
        assert min(d3, d2m, d2) >= -1e-12
        s = xstate_from_entries(*entries)
        rebuilt = conditional_entropy_povm3(s, build_povm3(povm.best_weights, povm.best_euler))
        # a projective witness's third weight, 1 - 2 WEIGHT_HI ~ 1e-9, moves
        # its value by up to twice that
        assert abs(rebuilt - povm.best_value) <= 1e-8

    @settings(max_examples=200)
    @given(positive_xstates())
    def test_generated_states(self, entries):
        self.check_against_full_scans(entries)

    @settings(max_examples=200)
    @given(edge_xstates())
    # A = -1 + 2e-15, where an outcome's probability vanishes within
    # 1e-15 of an end of the interval
    @example((2.4757990644926596e-16, 0.24757990644926567, 7.524200935507342e-16,
              0.7524200935507334, 0.0, 0.0))
    def test_edge_states(self, entries):
        self.check_against_full_scans(entries)

    @pytest.mark.parametrize("cfg", [CFG, SearchConfig(n_global_samples=1000)],
                             ids=lambda c: str(c.n_global_samples))
    def test_seeded_and_bundled_states(self, rng, cfg):
        corpus = [*BENCH_ENTRIES.values(), WORST_ENTRIES]
        corpus += [random_xstate_entries(rng) for _ in range(200)]
        for entries in corpus:
            self.check_against_full_scans(entries, cfg)


# states on which an axis is optimal over all POVMs: the Bell state,
# and two of the bench's general core states, certified on the
# transverse axis and on the z axis
CERTIFIED_ENTRIES = {
    "bell": BELL_ENTRIES,
    "transverse": (0.4850192813333656, 0.12953923442310356, 0.08858963377004314,
                   0.2968518504734877, -0.26826756440454996, -0.047901763073668654),
    "z": (0.04279764760726934, 0.15262385815033652, 0.7371748720073737,
          0.06740362223502039, 0.026124741402153113, -0.20403827057713275),
}


class TestScanBudget:
    """The sizes of the objective calls of each solve, counted on the
    projective G pairs (_plane_halves) and the mirror objective."""

    @pytest.fixture
    def sizes(self, monkeypatch):
        sizes = []

        def counted(make):
            def objective(s, base):
                f = make(s, base)
                return lambda x: sizes.append(len(x)) or f(x)
            return objective

        for name in ("_plane_halves", "_mirror_objective"):
            monkeypatch.setattr(optimizer, name, counted(getattr(optimizer, name)))
        return sizes

    @pytest.mark.parametrize("cfg", SCAN_CONFIGS, ids=lambda c: str(c.n_global_samples))
    def test_first_scan_full_later_scans_sized(self, bench_states, sizes, cfg):
        n, m = cfg.n_global_samples, min(REFINE_POINTS, cfg.n_global_samples)
        for s in bench_states.values():
            for solve in (minimize_projective, lambda s, cfg: minimize_povm3(s, cfg, proj=NEVER)):
                sizes.clear()
                res = solve(s, cfg)
                rounds = len(sizes)
                assert res.converged and rounds > 1
                assert sizes == [n] + [m] * (rounds - 1)
                assert res.n_evals == n + (rounds - 1) * m

    @pytest.mark.parametrize("cfg", SCAN_CONFIGS, ids=lambda c: str(c.n_global_samples))
    @pytest.mark.parametrize("entries", CERTIFIED_ENTRIES.values(), ids=CERTIFIED_ENTRIES)
    def test_certified_axis_stops_after_first_scan(self, sizes, cfg, entries):
        # a first scan coarser than REFINE_POINTS certifies nothing, and
        # both solves run their full schedules
        s = xstate_from_entries(*entries)
        n = cfg.n_global_samples
        proj = minimize_projective(s, cfg)
        n_proj = len(sizes)
        res = minimize_povm3(s, cfg, proj=proj)
        assert proj.converged and res.converged
        if n >= REFINE_POINTS:
            assert proj.lower_bound >= proj.best_value - CERT_TOL
            assert sizes == [n]
            assert (proj.n_evals, res.n_evals) == (n, 0)
            assert proj.best_direction in ((1.0, 0.0, 0.0), (0.0, 0.0, 1.0))
            assert res.lower_bound == proj.lower_bound
        else:
            assert proj.lower_bound == -math.inf
            assert n_proj > 1 and len(sizes) > n_proj + 1
            assert sizes[0] == sizes[n_proj] == n
            assert (proj.n_evals, res.n_evals) == (sum(sizes[:n_proj]), sum(sizes[n_proj:]))


class TestAxisCertificate:
    """Stopping at a certified axis never loses: minimize_povm3 is never
    above the full mirror and projective solves, and a bound that
    certifies is below both."""

    @settings(max_examples=200)
    @given(st.one_of(positive_xstates(), edge_xstates()))
    # a 4- or 5-point first scan certifies this state's z axis falsely:
    # without the REFINE_POINTS floor delta3_min reads 0.3338457901538505,
    # not 0.33384424279945424
    @example((0.012893212626343149, 0.07178307126985717, 0.6788989093368227,
              0.23642480676697683, 0.02729722006886312, -0.10922961227779358))
    def test_skip_never_loses(self, entries):
        s = xstate_from_entries(*entries)
        for cfg in SCAN_CONFIGS:
            proj = minimize_projective(s, cfg)
            full = min(
                minimize_povm3(s, cfg, proj=NEVER).best_value,
                _solve_1d(lambda nz: conditional_entropy_plane(s, nz), 0.0, 1.0, cfg)[1],
            )
            assert minimize_povm3(s, cfg, proj=proj).best_value <= full + 1e-12, cfg
            if proj.lower_bound >= proj.best_value - CERT_TOL:
                assert proj.lower_bound <= full + CERT_TOL, cfg


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

    @settings(max_examples=100)
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
    states and by 0.0009 on symmetric ones; these states exceed both, and
    no small move from either raises its gap."""

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

    @pytest.mark.parametrize("entries, diagonal, n_valid", [
        (WORST_ENTRIES, ((0,), (1,), (2,), (3,)), 11),
        (WORST_BC_ENTRIES, ((0,), (1, 2), (3,)), 6),
    ], ids=["general", "b_equals_c"])
    def test_no_small_move_raises_gap(self, entries, diagonal, n_valid):
        # a move shifts 1e-5 of mass between two diagonal entries, b and c
        # moving together on the b = c state, or adds +-1e-5 to eps or delta
        steps = [sign * np.eye(6)[k] for k in (4, 5) for sign in (1.0, -1.0)]
        for src, dst in itertools.permutations(diagonal, 2):
            step = np.zeros(6)
            step[list(src)], step[list(dst)] = -1.0 / len(src), 1.0 / len(dst)
            steps.append(step)

        top, n_moves = self.gap(entries), 0
        for step in steps:
            e = np.add(entries, 1e-5 * step)
            try:
                xstate_from_entries(*e)
            except PositivityError:
                continue
            n_moves += 1
            assert self.gap(e) <= top + 1e-10, e
        # a = eps = 0 on both states: a move out of a, or of eps, leaves
        # the state set
        assert n_moves == n_valid

    @pytest.mark.parametrize("entries, sources", [
        (WORST_ENTRIES, ((1,), (2,), (3,))),
        (WORST_BC_ENTRIES, ((1,), (2,), (3,), (1, 2))),
    ], ids=["general", "b_equals_c"])
    def test_no_joint_move_off_the_face_raises_gap(self, entries, sources):
        # a = h taken from b, c or d, or from b and c together on the b = c
        # state, with eps at 11 points across its whole range |eps| <= sqrt(a d)
        top = self.gap(entries)
        for src, h in itertools.product(sources, (1e-6, 1e-5, 1e-4, 1e-3)):
            e = np.array(entries)
            e[0] = h
            e[list(src)] -= h / len(src)
            for eps in np.linspace(-1.0, 1.0, 11) * math.sqrt(e[0] * e[3]):
                e[4] = eps
                assert self.gap(e) <= top + 1e-10, e

    @staticmethod
    def gap(entries):
        """delta2 - delta3_min of the state with these entries."""
        d3, _, d2 = povm3_discords(entries)
        return d2 - d3


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
