import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import EDGE_WEIGHTS
from oracles import random_unit_vector, random_xstate_entries
from xdiscord.discord import (
    ali_candidate,
    conditional_entropy_plane,
    conditional_entropy_povm3,
    conditional_entropy_projective,
    discord_given_conditional_entropy,
    plane_direction,
)
from xdiscord.entropy import LogBase
from xdiscord.optimizer import (
    IMPROVE_EPS,
    N_REFINE_CANDIDATES,
    PATTERN_MAX,
    POVM3_STEPS,
    PROJ_HI,
    PROJ_LO,
    RESET_ROUNDS,
    SearchConfig,
    _ce_batch,
    _ce_raw,
    _bloch_tuple,
    _near_projective_start,
    _pattern_search,
    _project_weights,
    _sample_weights_batch,
    minimize_povm3,
    minimize_projective,
    phi_invariance_audit,
)
from xdiscord.povm import EulerAngles, PovmWeights, build_povm3, sample_weights
from xdiscord.qstate import xstate_from_entries

LN2 = math.log(2.0)
QUICK = SearchConfig(seed=3, n_global_samples=2000)


def discord_of(s, ce, base=LogBase.BITS):
    return discord_given_conditional_entropy(s, ce, None, base).value


class TestSearchConfig:
    def test_defaults_valid(self):
        cfg = SearchConfig()
        assert cfg.n_global_samples == 20000

    def test_bad_counts_rejected(self):
        with pytest.raises(ValueError):
            SearchConfig(n_global_samples=0)
        with pytest.raises(ValueError):
            SearchConfig(refine_tol=0.0)


class TestKernels:
    @pytest.mark.parametrize("triple", EDGE_WEIGHTS.values(), ids=EDGE_WEIGHTS.keys())
    def test_kernels_match_public_path_at_edge_weights(self, bench_states, rng, triple):
        # every order: the kernels measure the angles from direction 1
        a_plus1 = xstate_from_entries(0.5, 0.0, 0.5, 0.0, 0.0, 0.0)
        eulers = rng.uniform(0.0, 2.0 * math.pi, size=(20, 3))
        for mus in set(itertools.permutations(triple)):
            w = PovmWeights(*mus)
            for s in [*bench_states.values(), a_plus1]:
                bpt = _bloch_tuple(s)
                batch = _ce_batch(bpt, np.tile(mus, (len(eulers), 1)), eulers, 1.0 / LN2)
                for e, b in zip(eulers, batch):
                    public = conditional_entropy_povm3(
                        s, build_povm3(w, EulerAngles(*e)), LogBase.BITS
                    )
                    raw = _ce_raw(bpt, *mus, *e, 1.0 / LN2)
                    assert_allclose(raw, public, rtol=0.0, atol=1e-14)
                    assert_allclose(b, public, rtol=0.0, atol=1e-14)

    def test_scalar_matches_public_path(self, bench_states, rng):
        for s in bench_states.values():
            bpt = _bloch_tuple(s)
            for _ in range(100):
                w = sample_weights(rng)
                psi, theta, phi = rng.uniform(0.0, 2.0 * math.pi, size=3)
                public = conditional_entropy_povm3(
                    s, build_povm3(w, EulerAngles(psi, theta, phi)), LogBase.BITS
                )
                raw = _ce_raw(bpt, w.mu1, w.mu2, w.mu3, psi, theta, phi, 1.0 / LN2)
                assert_allclose(raw, public, atol=1e-12)

    def test_batch_matches_scalar(self, bench_states, rng):
        s = bench_states["rho2"]
        bpt = _bloch_tuple(s)
        mus = _sample_weights_batch(rng, 500)
        eulers = rng.uniform(0.0, 2.0 * math.pi, size=(500, 3))
        batch = _ce_batch(bpt, mus, eulers, 1.0 / LN2)
        for i in range(500):
            raw = _ce_raw(bpt, *mus[i], *eulers[i], 1.0 / LN2)
            assert_allclose(batch[i], raw, atol=1e-13)

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


class TestSampleWeightsBatch:
    def test_rows_admissible(self, rng):
        mus = _sample_weights_batch(rng, 5000)
        assert mus.shape == (5000, 3)
        assert_allclose(mus.sum(axis=1), 1.0, atol=1e-12)
        assert mus.max() <= (1.0 - 1e-9) / 2.0
        assert mus.min() > 0.0

    def test_deterministic(self):
        a = _sample_weights_batch(np.random.default_rng(11), 100)
        b = _sample_weights_batch(np.random.default_rng(11), 100)
        assert np.array_equal(a, b)


def bisect_projection(m1, m2, steps=200):
    """Reference projection: bisection on the shift lam of the clipped sum."""
    v = (m1, m2, 1.0 - m1 - m2)
    lo, hi = min(v) - 2.0, max(v) + 2.0
    for _ in range(steps):
        lam = (lo + hi) / 2.0
        if sum(min(max(x - lam, PROJ_LO), PROJ_HI) for x in v) > 1.0:
            lo = lam
        else:
            hi = lam
    lam = (lo + hi) / 2.0
    return tuple(min(max(x - lam, PROJ_LO), PROJ_HI) for x in v[:2])


def _with_neighbours(x):
    return st.sampled_from((x, math.nextafter(x, -1.0), math.nextafter(x, 2.0)))


# coordinates of the box's corners and edges in the (m1, m2) plane, and
# their floating-point neighbours
box_values = st.sampled_from(
    (PROJ_LO, PROJ_HI, 1.0 - 2.0 * PROJ_HI, 1.0 - PROJ_LO - PROJ_HI)
).flatmap(_with_neighbours)
plane_values = st.floats(-0.1, 0.6)
weight_points = st.one_of(
    st.tuples(plane_values, plane_values),
    st.tuples(box_values, plane_values),
    st.tuples(plane_values, box_values),
    st.tuples(box_values, box_values),
    # on the face where the third weight sits at PROJ_HI
    plane_values.map(lambda m1: (m1, 1.0 - PROJ_HI - m1)),
)

PROJECTION_SETTINGS = settings(max_examples=500, deadline=None, derandomize=True, database=None)


class TestProjectWeights:
    @PROJECTION_SETTINGS
    @given(weight_points)
    def test_inside_points_unchanged(self, point):
        m1, m2 = point
        if all(PROJ_LO <= x <= PROJ_HI for x in (m1, m2, 1.0 - m1 - m2)):
            assert _project_weights(m1, m2) == (m1, m2)

    @PROJECTION_SETTINGS
    @given(weight_points)
    def test_output_in_box_and_admissible(self, point):
        w1, w2 = _project_weights(*point)
        w3 = 1.0 - w1 - w2
        assert PROJ_LO <= w1 <= PROJ_HI
        assert PROJ_LO <= w2 <= PROJ_HI
        assert PROJ_LO - 1e-15 <= w3 <= PROJ_HI + 1e-15
        PovmWeights(w1, w2, w3)

    @PROJECTION_SETTINGS
    @given(weight_points)
    def test_matches_reference_bisection(self, point):
        assert_allclose(_project_weights(*point), bisect_projection(*point), rtol=0.0, atol=1e-15)


class TestMinimizeProjective:
    def test_maximally_mixed_constant(self, mixed_state):
        res = minimize_projective(mixed_state, QUICK)
        assert_allclose(res.best_value, 1.0, atol=1e-12)
        assert res.converged
        assert res.best_direction is not None

    def test_benchmark_discord_values(self, bench_states):
        targets = {"rho1": 0.124623, "rho2": 0.107948, "rho3": 0.132741}
        for name, target in targets.items():
            s = bench_states[name]
            res = minimize_projective(s, SearchConfig())
            assert abs(discord_of(s, res.best_value) - target) <= 5e-5

    def test_deterministic(self, bench_states):
        s = bench_states["rho1"]
        r1 = minimize_projective(s, SearchConfig())
        r2 = minimize_projective(s, SearchConfig())
        assert r1.best_value == r2.best_value
        assert r1.best_direction == r2.best_direction
        assert r1.n_evals == r2.n_evals

    def test_direction_is_unit(self, bench_states):
        res = minimize_projective(bench_states["rho3"], QUICK)
        assert_allclose(np.linalg.norm(res.best_direction), 1.0, atol=1e-12)

    def test_never_above_axis_candidates(self, rng):
        for _ in range(10):
            s = xstate_from_entries(*random_xstate_entries(rng))
            res = minimize_projective(s, QUICK)
            for n in ((0.0, 0.0, 1.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0)):
                assert res.best_value <= conditional_entropy_projective(s, n) + 1e-12


@st.composite
def positive_xstates(draw):
    """Entries of a positive X state: a normalized diagonal and coherences
    strictly inside the block-positivity disks."""
    diag = draw(st.lists(st.floats(1e-3, 1.0), min_size=4, max_size=4))
    a, b, c, d = (x / sum(diag) for x in diag)
    u, v = draw(st.lists(st.floats(-0.999, 0.999), min_size=2, max_size=2))
    return a, b, c, d, u * math.sqrt(a * d), v * math.sqrt(b * c)


PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)


class TestProjectiveProperties:
    @PROPERTY_SETTINGS
    @given(positive_xstates())
    def test_invariant_under_eps_flip(self, entries):
        a, b, c, d, eps, delta = entries
        s = xstate_from_entries(*entries)
        flipped = xstate_from_entries(a, b, c, d, -eps, delta)
        assert_allclose(
            minimize_projective(flipped, QUICK).best_value,
            minimize_projective(s, QUICK).best_value,
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
        assert minimize_projective(s, QUICK).best_value <= ali_candidate(s).conditional_entropy

    @PROPERTY_SETTINGS
    @given(positive_xstates(), st.integers(0, 2**32 - 1))
    def test_never_above_random_directions(self, entries, seed):
        s = xstate_from_entries(*entries)
        rng = np.random.default_rng(seed)
        sampled = min(
            conditional_entropy_projective(s, random_unit_vector(rng)) for _ in range(300)
        )
        assert minimize_projective(s, QUICK).best_value <= sampled + 1e-12


class TestMinimizePovm3:
    def test_benchmark_discord_values(self, bench_states):
        targets = {"rho1": 0.123010, "rho2": 0.107873, "rho3": 0.132730}
        for name, target in targets.items():
            s = bench_states[name]
            res = minimize_povm3(s, SearchConfig())
            assert abs(discord_of(s, res.best_value) - target) <= 1e-4
            assert res.converged

    def test_deterministic(self, bench_states):
        s = bench_states["rho2"]
        r1 = minimize_povm3(s, QUICK)
        r2 = minimize_povm3(s, QUICK)
        assert r1.best_value == r2.best_value
        assert r1.best_weights == r2.best_weights
        assert r1.best_euler == r2.best_euler
        assert r1.n_evals == r2.n_evals

    def test_precomputed_projective_is_bit_identical(self, rng):
        s = xstate_from_entries(*random_xstate_entries(rng))
        for base in LogBase:
            own = minimize_povm3(s, QUICK, base)
            passed = minimize_povm3(s, QUICK, base, minimize_projective(s, QUICK, base))
            assert own.best_value == passed.best_value
            assert own.best_weights == passed.best_weights
            assert own.best_euler == passed.best_euler
            assert own.n_evals == passed.n_evals

    def test_refinement_monotone_vs_global_stage(self, bench_states):
        # replay the sampling stage and confirm refinement only improved it
        s = bench_states["rho3"]
        cfg = QUICK
        rng = np.random.default_rng(cfg.seed)
        mus = _sample_weights_batch(rng, cfg.n_global_samples)
        eulers = rng.uniform(0.0, 2.0 * math.pi, size=(cfg.n_global_samples, 3))
        mc_min = _ce_batch(_bloch_tuple(s), mus, eulers, 1.0 / LN2).min()
        res = minimize_povm3(s, cfg)
        assert res.best_value <= mc_min + 1e-15

    def test_witness_reproduces_value(self, bench_states):
        s = bench_states["rho1"]
        res = minimize_povm3(s, QUICK)
        p = build_povm3(res.best_weights, res.best_euler)
        assert_allclose(
            conditional_entropy_povm3(s, p, LogBase.BITS), res.best_value, atol=1e-9
        )

    def test_dominance_chain_on_benchmarks(self, bench_states):
        for s in bench_states.values():
            d3 = minimize_povm3(s, SearchConfig()).best_value
            d2m = minimize_projective(s, SearchConfig()).best_value
            d2 = ali_candidate(s).conditional_entropy
            assert d3 <= d2m + 1e-9
            assert d2m <= d2 + 1e-9

    def test_restart_stability_small(self, bench_states):
        s = bench_states["rho1"]
        vals = [
            minimize_povm3(s, SearchConfig(seed=k, n_global_samples=4000)).best_value
            for k in range(3)
        ]
        assert max(vals) - min(vals) <= 1e-5

    def test_nonnegative_discord_on_random_states(self, rng):
        for _ in range(10):
            s = xstate_from_entries(*random_xstate_entries(rng))
            res = minimize_povm3(s, SearchConfig(seed=1, n_global_samples=1000))
            assert discord_of(s, res.best_value) >= -1e-8


def povm3_starts(s, cfg):
    """The objective of minimize_povm3(s, cfg) in bits, and its starts in
    the order it refines them."""
    bpt = _bloch_tuple(s)
    rng = np.random.default_rng(cfg.seed)
    mus = _sample_weights_batch(rng, cfg.n_global_samples)
    eulers = rng.uniform(0.0, 2.0 * math.pi, size=(cfg.n_global_samples, 3))
    order = np.argsort(_ce_batch(bpt, mus, eulers, 1.0 / LN2), kind="stable")
    starts = [
        tuple(float(v) for v in (*mus[i, :2], *eulers[i]))
        for i in order[:N_REFINE_CANDIDATES]
    ]
    starts.append(_near_projective_start(minimize_projective(s, cfg)))

    def f(x):
        return _ce_raw(bpt, x[0], x[1], 1.0 - x[0] - x[1], *x[2:], 1.0 / LN2)

    return f, starts


class TestStartPruning:
    def test_bounded_by_unpruned_search(self, bench_states, rng):
        randoms = [xstate_from_entries(*random_xstate_entries(rng)) for _ in range(3)]
        for s in [*bench_states.values(), *randoms]:
            f, starts = povm3_starts(s, QUICK)
            unpruned = min(
                _pattern_search(f, x0, POVM3_STEPS, QUICK, weights=True)[1] for x0 in starts
            )
            pruned = minimize_povm3(s, QUICK).best_value
            assert unpruned <= pruned <= unpruned + 1e-9

    def test_trailing_start_stops_after_one_round(self, bench_states):
        f, starts = povm3_starts(bench_states["rho2"], QUICK)
        for x0 in starts:
            full = _pattern_search(f, x0, POVM3_STEPS, QUICK, weights=True)
            # conditional entropies are >= 0, so -1 trails every value
            stopped = _pattern_search(f, x0, POVM3_STEPS, QUICK, weights=True, incumbent=-1.0)
            assert stopped[3] <= 1 + 2 * len(x0) * QUICK.n_refine_iters
            assert stopped[3] < full[3]
            assert stopped[1] >= full[1]
            assert _pattern_search(
                f, x0, POVM3_STEPS, QUICK, weights=True, incumbent=math.inf
            ) == full
            # the search never rises above its projected start's value
            start_value = f([*_project_weights(*x0[:2]), *x0[2:]])
            assert _pattern_search(
                f, x0, POVM3_STEPS, QUICK, weights=True, incumbent=start_value
            ) == full


def compass_search(f, x0, steps0, cfg, incumbent=math.inf):
    """_pattern_search(..., weights=True) without pattern moves: the
    coordinate search they replaced, kept as the reference."""
    x = list(x0)
    x[0], x[1] = _project_weights(x[0], x[1])
    fx = f(x)
    n_evals = 1
    converged = False
    for _ in range(RESET_ROUNDS):
        steps = list(steps0)
        sweeps = 0
        while max(steps) > cfg.refine_tol and sweeps < cfg.n_refine_iters:
            moved = False
            for i in range(len(x)):
                for sgn in (1.0, -1.0):
                    trial = x.copy()
                    trial[i] += sgn * steps[i]
                    if i < 2:
                        trial[0], trial[1] = _project_weights(trial[0], trial[1])
                    ft = f(trial)
                    n_evals += 1
                    if ft < fx - IMPROVE_EPS * max(1.0, abs(fx)):
                        x, fx = trial, ft
                        moved = True
            if not moved:
                steps = [s / 2.0 for s in steps]
            sweeps += 1
        converged = max(steps) <= cfg.refine_tol
        if fx > incumbent:
            break
    return x, fx, converged, n_evals


def compass_povm3(s, cfg):
    """best_value and n_evals of minimize_povm3(s, cfg) refined by
    compass_search."""
    f, starts = povm3_starts(s, cfg)
    best, n_evals = math.inf, cfg.n_global_samples
    for x0 in starts:
        _, fx, _, n = compass_search(f, x0, POVM3_STEPS, cfg, incumbent=best)
        n_evals += n
        best = min(best, fx)
    return best, n_evals


class TestPatternMoves:
    @pytest.fixture(scope="class")
    def runs(self, bench_states):
        rng = np.random.default_rng(61)
        randoms = [xstate_from_entries(*random_xstate_entries(rng)) for _ in range(5)]
        return [
            (compass_povm3(s, QUICK), minimize_povm3(s, QUICK))
            for s in [*bench_states.values(), *randoms]
        ]

    def test_never_above_compass_search(self, runs):
        for (ref_value, _), res in runs:
            assert res.best_value <= ref_value + 1e-12

    def test_fewer_evaluations_than_compass_search(self, runs):
        # summed: on a single state the searches can part ways, and a
        # different incumbent can prune a later start less
        assert sum(res.n_evals for _, res in runs) < sum(ref[1] for ref, _ in runs)

    def test_repeat_is_bit_identical(self, bench_states):
        rng = np.random.default_rng(61)
        randoms = [xstate_from_entries(*random_xstate_entries(rng)) for _ in range(5)]
        for s in [*bench_states.values(), *randoms]:
            assert minimize_povm3(s, QUICK) == minimize_povm3(s, QUICK)

    def test_sweep_cost_bound_is_reached_on_a_ramp(self):
        # every pattern move improves an unbounded linear objective, so
        # the one sweep of each round runs the whole chain: a step h,
        # then moves h, 2h, ..., 2**PATTERN_MAX h
        dim, h = 5, 0.125
        cfg = SearchConfig(n_refine_iters=1)
        x, _, _, n = _pattern_search(lambda x: -x[0], [0.0] * dim, [h] * dim, cfg)
        assert n == 1 + RESET_ROUNDS * (2 * dim + PATTERN_MAX + 1)
        assert x == [RESET_ROUNDS * h * 2.0 ** (PATTERN_MAX + 1), *[0.0] * (dim - 1)]

    def test_sweep_cost_bounded_on_the_objective(self, bench_states):
        cfg = SearchConfig(n_refine_iters=1)
        f, starts = povm3_starts(bench_states["rho1"], QUICK)
        for x0 in starts:
            n = _pattern_search(f, x0, POVM3_STEPS, cfg, weights=True)[3]
            assert n <= 1 + RESET_ROUNDS * (2 * len(x0) + PATTERN_MAX + 1)


WITNESS_SETTINGS = settings(max_examples=10, deadline=None, derandomize=True, database=None)


class TestPovm3Properties:
    @WITNESS_SETTINGS
    @given(positive_xstates())
    def test_witness_rebuilds_and_reproduces_value(self, entries):
        s = xstate_from_entries(*entries)
        res = minimize_povm3(s, QUICK)
        p = build_povm3(res.best_weights, res.best_euler)
        assert abs(conditional_entropy_povm3(s, p, LogBase.BITS) - res.best_value) <= 1e-8


class TestGridOracle:
    def test_search_beats_dense_grid(self, bench_states):
        # ~1e6-point product grid over the five coordinates
        ng_mu, ng_ang = 14, 20
        mu_axis = np.linspace(0.02, 0.48, ng_mu)
        pairs = [
            (m1, m2)
            for m1 in mu_axis
            for m2 in mu_axis
            if max(m1, m2, 1.0 - m1 - m2) < 0.5 - 1e-9 and (1.0 - m1 - m2) > 0.0
        ]
        angles = np.linspace(0.0, 2.0 * math.pi, ng_ang, endpoint=False)
        euler_rows = np.array(list(itertools.product(angles, angles, angles)))
        for name in ("rho1", "rho3"):
            s = bench_states[name]
            bpt = _bloch_tuple(s)
            grid_min = math.inf
            for m1, m2 in pairs:
                mus = np.tile([m1, m2, 1.0 - m1 - m2], (len(euler_rows), 1))
                vals = _ce_batch(bpt, mus, euler_rows, 1.0 / LN2)
                grid_min = min(grid_min, float(vals.min()))
            res = minimize_povm3(s, SearchConfig())
            assert res.best_value <= grid_min + 1e-4


class TestPhiInvarianceAudit:
    def test_maximally_mixed_spread_exactly_zero(self, mixed_state):
        rep = phi_invariance_audit(mixed_state, QUICK)
        assert rep.spread == 0.0

    def test_benchmark_spread_small(self, bench_states):
        rep = phi_invariance_audit(bench_states["rho2"], QUICK)
        assert rep.spread <= 1e-6
        assert len(rep.phi_values) == len(rep.ce_values)

    def test_report_values_near_optimum(self, bench_states):
        s = bench_states["rho2"]
        res = minimize_povm3(s, QUICK)
        rep = phi_invariance_audit(s, QUICK)
        assert min(rep.ce_values) <= res.best_value + 1e-9
