import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import (
    BENCH_ENTRIES,
    EDGE_WEIGHTS,
    WORST_ENTRIES,
    edge_xstates,
    positive_xstates,
)
from oracles import ce_povm_oracle, dense_xmatrix, random_unit_vector, random_xstate_entries
from povm_search import (
    IMPROVE_EPS,
    N_REFINE_CANDIDATES,
    PATTERN_MAX,
    POVM3_STEPS,
    RESET_ROUNDS,
    _bloch_tuple,
    _ce_batch,
    _ce_raw,
    _near_projective_start,
    _pattern_search,
    _project_weights,
    _sample_weights_batch,
    phi_invariance_audit,
    search_povm3,
)
from xdiscord import optimizer
from xdiscord.discord import (
    PROB_FLOOR,
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
    PROJ_HI,
    PROJ_LO,
    REFINE_POINTS,
    REFINE_TOL,
    OptResult,
    SearchConfig,
    _mirror_t,
    _plane_euler,
    minimize_povm3,
    minimize_projective,
)
from xdiscord.povm import EulerAngles, PovmWeights, build_povm3, sample_weights
from xdiscord.qstate import xstate_from_entries

LN2 = math.log(2.0)
CFG = SearchConfig()
# a quick budget for the reference search of povm_search
QUICK_SEED, QUICK_SAMPLES = 3, 2000


def quick_search(s):
    return search_povm3(s, QUICK_SEED, QUICK_SAMPLES, CFG)


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
        res = minimize_projective(mixed_state, CFG)
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
    def test_benchmark_discord_values(self, bench_states):
        targets = {"rho1": 0.123010, "rho2": 0.107873, "rho3": 0.132730}
        for name, target in targets.items():
            s = bench_states[name]
            res = minimize_povm3(s, SearchConfig())
            assert abs(discord_of(s, res.best_value) - target) <= 1e-4
            assert res.converged

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

    def test_refinement_monotone_vs_global_stage(self, bench_states):
        # replay the reference search's sampling stage: its refinement
        # only improved on it, and the 1-D solve is below both
        s = bench_states["rho3"]
        rng = np.random.default_rng(QUICK_SEED)
        mus = _sample_weights_batch(rng, QUICK_SAMPLES)
        eulers = rng.uniform(0.0, 2.0 * math.pi, size=(QUICK_SAMPLES, 3))
        mc_min = _ce_batch(_bloch_tuple(s), mus, eulers, 1.0 / LN2).min()
        reference = quick_search(s).best_value
        assert reference <= mc_min + 1e-15
        assert minimize_povm3(s, CFG).best_value <= reference + 1e-12

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

    def test_dominance_chain_on_benchmarks(self, bench_states):
        for s in bench_states.values():
            d3 = minimize_povm3(s, SearchConfig()).best_value
            d2m = minimize_projective(s, SearchConfig()).best_value
            d2 = ali_candidate(s).conditional_entropy
            assert d3 <= d2m + 1e-9
            assert d2m <= d2 + 1e-9

    def test_restart_stability_small(self, bench_states):
        # the reference search from three seeds: none below the 1-D solve
        s = bench_states["rho1"]
        vals = [search_povm3(s, k, 4000).best_value for k in range(3)]
        assert max(vals) - min(vals) <= 1e-5
        assert min(vals) >= minimize_povm3(s, CFG).best_value - 1e-12

    def test_nonnegative_discord_on_random_states(self, rng):
        for _ in range(10):
            s = xstate_from_entries(*random_xstate_entries(rng))
            res = minimize_povm3(s, SearchConfig(n_global_samples=1000))
            assert discord_of(s, res.best_value) >= -1e-8


def povm3_starts(s):
    """The objective of quick_search(s) in bits, and its starts in the
    order it refines them."""
    bpt = _bloch_tuple(s)
    rng = np.random.default_rng(QUICK_SEED)
    mus = _sample_weights_batch(rng, QUICK_SAMPLES)
    eulers = rng.uniform(0.0, 2.0 * math.pi, size=(QUICK_SAMPLES, 3))
    order = np.argsort(_ce_batch(bpt, mus, eulers, 1.0 / LN2), kind="stable")
    starts = [
        tuple(float(v) for v in (*mus[i, :2], *eulers[i]))
        for i in order[:N_REFINE_CANDIDATES]
    ]
    starts.append(_near_projective_start(minimize_projective(s, CFG)))

    def f(x):
        return _ce_raw(bpt, x[0], x[1], 1.0 - x[0] - x[1], *x[2:], 1.0 / LN2)

    return f, starts


class TestStartPruning:
    def test_bounded_by_unpruned_search(self, bench_states, rng):
        randoms = [xstate_from_entries(*random_xstate_entries(rng)) for _ in range(3)]
        for s in [*bench_states.values(), *randoms]:
            f, starts = povm3_starts(s)
            unpruned = min(
                _pattern_search(f, x0, POVM3_STEPS, CFG, weights=True)[1] for x0 in starts
            )
            pruned = quick_search(s).best_value
            assert unpruned <= pruned <= unpruned + 1e-9

    def test_trailing_start_stops_after_one_round(self, bench_states):
        f, starts = povm3_starts(bench_states["rho2"])
        for x0 in starts:
            full = _pattern_search(f, x0, POVM3_STEPS, CFG, weights=True)
            # conditional entropies are >= 0, so -1 trails every value
            stopped = _pattern_search(f, x0, POVM3_STEPS, CFG, weights=True, incumbent=-1.0)
            assert stopped[3] <= 1 + 2 * len(x0) * CFG.n_refine_iters
            assert stopped[3] < full[3]
            assert stopped[1] >= full[1]
            assert _pattern_search(
                f, x0, POVM3_STEPS, CFG, weights=True, incumbent=math.inf
            ) == full
            # the search never rises above its projected start's value
            start_value = f([*_project_weights(*x0[:2]), *x0[2:]])
            assert _pattern_search(
                f, x0, POVM3_STEPS, CFG, weights=True, incumbent=start_value
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
        while max(steps) > REFINE_TOL and sweeps < cfg.n_refine_iters:
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
        converged = max(steps) <= REFINE_TOL
        if fx > incumbent:
            break
    return x, fx, converged, n_evals


def compass_povm3(s):
    """best_value and n_evals of quick_search(s) refined by
    compass_search."""
    f, starts = povm3_starts(s)
    best, n_evals = math.inf, QUICK_SAMPLES
    for x0 in starts:
        _, fx, _, n = compass_search(f, x0, POVM3_STEPS, CFG, incumbent=best)
        n_evals += n
        best = min(best, fx)
    return best, n_evals


class TestPatternMoves:
    @pytest.fixture(scope="class")
    def runs(self, bench_states):
        rng = np.random.default_rng(61)
        randoms = [xstate_from_entries(*random_xstate_entries(rng)) for _ in range(5)]
        return [
            (compass_povm3(s), quick_search(s))
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
            assert quick_search(s) == quick_search(s)

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
        f, starts = povm3_starts(bench_states["rho1"])
        for x0 in starts:
            n = _pattern_search(f, x0, POVM3_STEPS, cfg, weights=True)[3]
            assert n <= 1 + RESET_ROUNDS * (2 * len(x0) + PATTERN_MAX + 1)


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
        # a projective witness's third weight, 1 - 2 PROJ_HI ~ 1e-9, moves
        # its value by up to twice that
        assert abs(rebuilt - povm.best_value) <= 1e-8

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(positive_xstates())
    def test_generated_states(self, entries):
        self.check_against_full_scans(entries)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(edge_xstates())
    # A = -1 + 2e-15, where the two schedules differ by 3.8e-13
    @example((2.4757990644926596e-16, 0.24757990644926567, 7.524200935507342e-16,
              0.7524200935507334, 0.0, 0.0))
    def test_edge_states(self, entries):
        # for |A| within PROB_FLOOR of 1 an outcome's probability falls
        # to PROB_FLOOR within PROB_FLOOR of an end of the interval and
        # the outcome is skipped there: the objective steps by up to
        # PROB_FLOOR, and last scans of other spacings land either side
        self.check_against_full_scans(entries, PROB_FLOOR)

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


class TestReferenceSearchGate:
    """The 5-D reference search at its default budget is never below the
    1-D solve by more than 1e-12."""

    def assert_not_below(self, states):
        for s in states:
            assert search_povm3(s).best_value >= minimize_povm3(s, CFG).best_value - 1e-12

    def test_random_states(self):
        rng = np.random.default_rng(2718)
        self.assert_not_below([xstate_from_entries(*random_xstate_entries(rng)) for _ in range(20)])

    def test_povm_advantage_states(self):
        states = advantage_states(12, seed=1)
        assert len(states) == 12
        self.assert_not_below(states)

    def test_worst_case_state(self):
        self.assert_not_below([xstate_from_entries(*WORST_ENTRIES)])


class TestHeadlineBound:
    def test_worst_case_gap_exceeds_paper_bound(self):
        # the paper bounds delta2 - delta3_min by 0.004565 bits on
        # general X states; this state exceeds it
        s = xstate_from_entries(*WORST_ENTRIES)
        res = minimize_povm3(s, CFG)
        assert ali_candidate(s).value - discord_of(s, res.best_value) >= 0.00633
        p = build_povm3(res.best_weights, res.best_euler)
        rho4 = dense_xmatrix(s.a, s.b, s.c, s.d, s.eps, s.delta)
        dense = ce_povm_oracle(rho4, res.best_weights.as_array(), p.dirs)
        assert abs(dense - res.best_value) <= 1e-12


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
            assert search_povm3(s).best_value >= res.best_value - 1e-12


class TestPhiInvarianceAudit:
    def test_maximally_mixed_spread_exactly_zero(self, mixed_state):
        rep = phi_invariance_audit(mixed_state, minimize_povm3(mixed_state, CFG))
        assert rep.spread == 0.0

    def test_benchmark_spread_small(self, bench_states):
        s = bench_states["rho2"]
        rep = phi_invariance_audit(s, minimize_povm3(s, CFG))
        assert rep.spread <= 1e-6
        assert len(rep.phi_values) == len(rep.ce_values)

    def test_report_values_near_optimum(self, bench_states):
        s = bench_states["rho2"]
        res = minimize_povm3(s, CFG)
        rep = phi_invariance_audit(s, res)
        assert min(rep.ce_values) <= res.best_value + 1e-9
