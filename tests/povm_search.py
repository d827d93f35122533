"""Reference oracle for delta3_min: a seeded Monte-Carlo sweep plus a
5-D Hooke-Jeeves pattern search over all 3-element POVMs.

xdiscord.optimizer.minimize_povm3 solves one variable, the
mirror-symmetric triangle, and takes the better of it and the
projective optimum. This module keeps the search over the full weight
region and Euler cube, five effective coordinates (mu1, mu2, psi,
theta, phi), that the tests compare it with: search_povm3 is never
expected below it by more than 1e-12. At its default budget (seed 7,
20000 samples) it is the search the package ran before the 1-D solve.

search_povm3 samples weight triples and orientations through a
vectorized kernel, then refines the best candidates plus a
near-projective start with a pattern search: coordinate sweeps, each
one that moves followed by doubling moves along its displacement.
Steps are reset to their initial size a few times after each
convergence so the search can escape curved valleys; weight iterates
leaving the admissible region are projected exactly onto the
admissible box. The starts are refined in turn, and a start stops
after any reset round that ends above the best value of the starts
before it. Both kernels take the angles between the directions from
povm.tan2_half_angle, as povm.angles_from_weights does.
"""

import math
from dataclasses import dataclass

import numpy as np

from xdiscord.entropy import LogBase
from xdiscord.optimizer import (
    PROJ_HI,
    PROJ_LO,
    REFINE_TOL,
    OptResult,
    SearchConfig,
    minimize_projective,
)
from xdiscord.povm import TRIANGLE_MARGIN, EulerAngles, PovmWeights, tan2_half_angle
from xdiscord.qstate import XState, bloch_params

N_REFINE_CANDIDATES = 10
RESET_ROUNDS = 3
PHI_GRID_POINTS = 16
ORIENT_GRID = 24
NEAR_PROJECTIVE_MU3 = 1e-6
PROB_FLOOR = 1e-12
# initial pattern-search steps over (mu1, mu2, psi, theta, phi)
POVM3_STEPS = (0.02, 0.02, 0.1, 0.1, 0.1)

TWO_PI = 2.0 * math.pi
LN2 = math.log(2.0)

# moves must improve the objective by more than floating-point noise,
# otherwise rounding jitter along flat directions stalls step halving
IMPROVE_EPS = 1e-15

# pattern moves after a sweep stop at 2**PATTERN_MAX times the sweep's
# displacement, so a sweep costs at most 2 * dim + PATTERN_MAX + 1
# evaluations; on bench and random X states no chain ran past 15 moves
PATTERN_MAX = 16

# the budget of the package's former search
ORACLE_SEED = 7
ORACLE_SAMPLES = 20000


@dataclass(frozen=True)
class PhiAuditReport:
    """Refined conditional entropy along a phi sweep at fixed weights."""

    phi_values: tuple[float, ...]
    ce_values: tuple[float, ...]
    spread: float
    weights: PovmWeights
    base: LogBase


def _scale(base: LogBase) -> float:
    return 1.0 / LN2 if base is LogBase.BITS else 1.0


def _plogp(p: np.ndarray) -> np.ndarray:
    """p log p with 0 log 0 = 0 by a mask, kept apart from the
    package's mask-free rule."""
    out = np.zeros_like(p)
    mask = p > 0.0
    out[mask] = p[mask] * np.log(p[mask])
    return out


def _ce_raw(bpt, m1, m2, m3, psi, theta, phi, scale):
    """Scalar 3-POVM conditional entropy from the closed-form directions.

    In the triangle's plane the directions sit at angles phi,
    phi + theta12 and phi - theta13, where theta_ij = pi - alpha and
    alpha is the interior angle opposite the third weight. Their cos
    and sin come from tan2_half_angle and angle addition, so no
    inverse trig function is called.
    """
    A, B, t1, t2, t3 = bpt
    x12 = tan2_half_angle(m1, m2, m3)
    x13 = tan2_half_angle(m1, m3, m2)
    c12, s12 = (x12 - 1.0) / (x12 + 1.0), 2.0 * math.sqrt(x12) / (x12 + 1.0)
    c13, s13 = (x13 - 1.0) / (x13 + 1.0), 2.0 * math.sqrt(x13) / (x13 + 1.0)
    cph, sph = math.cos(phi), math.sin(phi)
    cps, sps = math.cos(psi), math.sin(psi)
    cth, sth = math.cos(theta), math.sin(theta)
    u, v = sps * sth, cps * sth
    tot = 0.0
    for mu, cb, sb in (
        (m1, cph, sph),
        (m2, c12 * cph - s12 * sph, s12 * cph + c12 * sph),
        (m3, c13 * cph + s13 * sph, c13 * sph - s13 * cph),
    ):
        mz = sb * v - cb * sps
        den = 1.0 + A * mz
        if den <= PROB_FLOOR:
            continue
        mx = cb * cps + sb * u
        my = sb * cth
        e = math.sqrt((t1 * mx) ** 2 + (t2 * my) ** 2 + (t3 * mz + B) ** 2) / den
        if e >= 1.0:
            continue
        # binary entropy of (1 +- e)/2 in nats; e < 1 keeps both logs finite
        p, q = (1.0 + e) / 2.0, (1.0 - e) / 2.0
        tot -= mu * den * (p * math.log(p) + q * math.log(q))
    return tot * scale


def _ce_batch(bpt, mus, eulers, scale):
    """Vectorized counterpart of _ce_raw over candidate rows."""
    A, B, t1, t2, t3 = bpt
    m1, m2, m3 = mus[:, 0], mus[:, 1], mus[:, 2]
    x12 = tan2_half_angle(m1, m2, m3)
    x13 = tan2_half_angle(m1, m3, m2)
    c12, s12 = (x12 - 1.0) / (x12 + 1.0), 2.0 * np.sqrt(x12) / (x12 + 1.0)
    c13, s13 = (x13 - 1.0) / (x13 + 1.0), 2.0 * np.sqrt(x13) / (x13 + 1.0)
    cph, sph = np.cos(eulers[:, 2]), np.sin(eulers[:, 2])
    cps, sps = np.cos(eulers[:, 0]), np.sin(eulers[:, 0])
    cth, sth = np.cos(eulers[:, 1]), np.sin(eulers[:, 1])
    tot = np.zeros(len(mus))
    for mu, cb, sb in (
        (m1, cph, sph),
        (m2, c12 * cph - s12 * sph, s12 * cph + c12 * sph),
        (m3, c13 * cph + s13 * sph, c13 * sph - s13 * cph),
    ):
        mx = cb * cps + sb * sps * sth
        my = sb * cth
        mz = sb * cps * sth - cb * sps
        den = 1.0 + A * mz
        live = den > PROB_FLOOR
        e = np.zeros_like(den)
        e[live] = (
            np.sqrt(
                (t1 * mx[live]) ** 2
                + (t2 * my[live]) ** 2
                + (t3 * mz[live] + B) ** 2
            )
            / den[live]
        )
        e = np.clip(e, 0.0, 1.0)
        h = -(_plogp((1.0 + e) / 2.0) + _plogp((1.0 - e) / 2.0))
        tot += np.where(live, mu * den * h, 0.0)
    return tot * scale


def _project_weights(m1, m2):
    """Nearest point of (m1, m2, 1-m1-m2) inside the box-constrained simplex.

    The projection is clip(v - lam, PROJ_LO, PROJ_HI) for the lam at
    which the clipped entries sum to 1. That sum falls continuously in
    lam and is linear between consecutive breakpoints v_i - PROJ_HI,
    v_i - PROJ_LO, where an entry leaves or reaches a bound, so linear
    interpolation between the two breakpoints that bracket 1 is exact.
    """
    m3 = 1.0 - m1 - m2
    if PROJ_LO <= m1 <= PROJ_HI and PROJ_LO <= m2 <= PROJ_HI and PROJ_LO <= m3 <= PROJ_HI:
        return m1, m2
    v = (m1, m2, m3)

    def clipped_sum(lam):
        return sum(min(max(x - lam, PROJ_LO), PROJ_HI) for x in v)

    # below the first breakpoint the sum is 3 * PROJ_HI > 1, above the
    # last it is 3 * PROJ_LO < 1
    knots = sorted([x - PROJ_HI for x in v] + [x - PROJ_LO for x in v])
    lo, s_lo = knots[0], clipped_sum(knots[0])
    for hi in knots[1:]:
        s_hi = clipped_sum(hi)
        if s_hi <= 1.0:
            break
        lo, s_lo = hi, s_hi
    lam = lo + (s_lo - 1.0) / (s_lo - s_hi) * (hi - lo)
    w1 = min(max(v[0] - lam, PROJ_LO), PROJ_HI)
    w2 = min(max(v[1] - lam, PROJ_LO), PROJ_HI)
    return w1, w2


def _improvement_bar(fx):
    """Value a trial must fall below to improve on fx (see IMPROVE_EPS)."""
    return fx - IMPROVE_EPS * max(1.0, abs(fx))


def _pattern_search(f, x0, steps0, cfg, weights=False, incumbent=math.inf):
    """Hooke-Jeeves pattern search with step-reset rounds.

    Each sweep tries a step either way along every coordinate and
    keeps any strict improvement. A sweep that moved is followed by
    pattern moves along its net displacement d (Hooke & Jeeves,
    J. ACM 8, 212 (1961)): x + d, then from there x + 2d, 4d, ... up
    to 2^PATTERN_MAX d, for as long as each one improves; along a
    curved valley the sweeps alone crawl. A sweep that did not move
    halves all steps. After converging, steps reset to their initial
    size and the search repeats, which lets the iterate continue along
    valleys not aligned with the axes.

    With weights true, x[0] and x[1] are the weights mu1, mu2: the
    start is projected onto the admissible box once, and every trial
    that can move them (a coordinate step along mu1 or mu2, or a
    pattern move) is projected again; steps along the other
    coordinates leave the weights unchanged and in the box.

    incumbent is the best value of the starts already refined. The
    search returns after any reset round that ends above it: the start
    cannot win, since further rounds would have to overtake an
    incumbent that only falls.

    Returns (x, f(x), converged, number of f evaluations).
    """
    x = list(x0)
    if weights:
        x[0], x[1] = _project_weights(x[0], x[1])
    fx = f(x)
    bar = _improvement_bar(fx)
    n_evals = 1
    converged = False
    for _ in range(RESET_ROUNDS):
        steps = list(steps0)
        sweeps = 0
        while max(steps) > REFINE_TOL and sweeps < cfg.n_refine_iters:
            x_start = x
            for i in range(len(x)):
                for sgn in (1.0, -1.0):
                    trial = x.copy()
                    trial[i] += sgn * steps[i]
                    if weights and i < 2:
                        trial[0], trial[1] = _project_weights(trial[0], trial[1])
                    ft = f(trial)
                    n_evals += 1
                    if ft < bar:
                        x, fx, bar = trial, ft, _improvement_bar(ft)
            if x is x_start:  # no step improved
                steps = [s / 2.0 for s in steps]
            else:
                d = [a - b for a, b in zip(x, x_start)]
                for _ in range(PATTERN_MAX + 1):
                    trial = [a + b for a, b in zip(x, d)]
                    if weights:
                        trial[0], trial[1] = _project_weights(trial[0], trial[1])
                    ft = f(trial)
                    n_evals += 1
                    if not ft < bar:
                        break
                    x, fx, bar = trial, ft, _improvement_bar(ft)
                    d = [2.0 * b for b in d]
            sweeps += 1
        converged = max(steps) <= REFINE_TOL
        if fx > incumbent:
            break
    return x, fx, converged, n_evals


def _bloch_tuple(s: XState):
    bp = bloch_params(s)
    return (bp.A, bp.B, bp.t1, bp.t2, bp.t3)


def _sample_weights_batch(rng, n):
    """Vectorized rejection sampling of n admissible weight triples."""
    cap = (1.0 - TRIANGLE_MARGIN) / 2.0
    rows = []
    have = 0
    while have < n:
        u = rng.uniform(0.0, 1.0, size=(2 * n, 2))
        lo = u.min(axis=1)
        hi = u.max(axis=1)
        mus = np.column_stack([lo, hi - lo, 1.0 - hi])
        ok = mus.max(axis=1) <= cap
        rows.append(mus[ok])
        have += int(ok.sum())
    return np.concatenate(rows)[:n]


def _near_projective_start(proj):
    """Candidate mimicking the best projective measurement proj.

    Two weights sit just inside the half cap and the first direction is
    aligned with the optimal projective axis, so refinement starts from
    (almost) the projective optimum and can only improve on it.
    """
    nx, ny, nz = proj.best_direction
    snorm = math.hypot(ny, nz)
    phi = math.atan2(snorm, nx)
    theta = math.atan2(nz, ny) if snorm > 0.0 else 0.0
    c = (1.0 - NEAR_PROJECTIVE_MU3) / 2.0
    return (c, c, 0.0, theta, phi)


def search_povm3(
    s: XState,
    seed: int = ORACLE_SEED,
    n_samples: int = ORACLE_SAMPLES,
    cfg: SearchConfig = SearchConfig(),
    base: LogBase = LogBase.BITS,
    proj: OptResult | None = None,
) -> OptResult:
    """Minimum 3-element POVM conditional entropy.

    Monte-Carlo over n_samples (weights, Euler angles) drawn from seed,
    then pattern-search refinement (budget from cfg, tolerance
    REFINE_TOL) of the best candidates plus a near-projective start
    seeded from proj, the result of minimize_projective(s, cfg, base);
    it is solved here when omitted, with bit-identical results.
    Deterministic for fixed arguments.
    """
    if proj is None:
        proj = minimize_projective(s, cfg, base)
    bpt = _bloch_tuple(s)
    scale = _scale(base)
    rng = np.random.default_rng(seed)
    mus = _sample_weights_batch(rng, n_samples)
    eulers = rng.uniform(0.0, TWO_PI, size=(n_samples, 3))
    vals = _ce_batch(bpt, mus, eulers, scale)
    n_evals = len(vals)

    order = np.argsort(vals, kind="stable")[:N_REFINE_CANDIDATES]
    starts = [
        (float(mus[i, 0]), float(mus[i, 1]),
         float(eulers[i, 0]), float(eulers[i, 1]), float(eulers[i, 2]))
        for i in order
    ]
    starts.append(_near_projective_start(proj))

    def f(x):
        return _ce_raw(bpt, x[0], x[1], 1.0 - x[0] - x[1], x[2], x[3], x[4], scale)

    best_x, best_f, best_conv = None, math.inf, False
    for x0 in starts:
        x, fx, conv, n = _pattern_search(
            f, x0, POVM3_STEPS, cfg, weights=True, incumbent=best_f
        )
        n_evals += n
        if fx < best_f:
            best_x, best_f, best_conv = x, fx, conv
    weights = PovmWeights(best_x[0], best_x[1], 1.0 - best_x[0] - best_x[1])
    euler = EulerAngles(best_x[2], best_x[3], best_x[4])
    return OptResult(
        best_value=best_f,
        n_evals=n_evals,
        converged=best_conv,
        base=base,
        best_weights=weights,
        best_euler=euler,
    )


def phi_invariance_audit(
    s: XState,
    best: OptResult,
    cfg: SearchConfig = SearchConfig(),
    base: LogBase = LogBase.BITS,
) -> PhiAuditReport:
    """Check that the refined minimum at the witness weights of best, a
    3-element search result for s, does not depend on phi.

    Holds those weights fixed, sweeps phi over a grid, and re-minimizes
    over (psi, theta) at each point: a coarse orientation grid plus the
    witness's own, refined by pattern search. Reports max - min of the
    refined conditional entropies. phi is redundant, and the spread
    rounding error, only for states symmetric under z-rotations
    (|t1| = |t2|).
    """
    bpt = _bloch_tuple(s)
    scale = _scale(base)
    w = best.best_weights
    m1, m2, m3 = w.mu1, w.mu2, w.mu3
    psi0, th0 = best.best_euler.psi, best.best_euler.theta

    g = np.linspace(0.0, TWO_PI, ORIENT_GRID, endpoint=False)
    gp, gt = np.meshgrid(g, g, indexing="ij")
    grid_mus = np.tile([m1, m2, m3], (gp.size, 1))

    phi_values, ce_values = [], []
    for phi in np.linspace(0.0, TWO_PI, PHI_GRID_POINTS, endpoint=False):
        eulers = np.column_stack([gp.ravel(), gt.ravel(), np.full(gp.size, phi)])
        vals = _ce_batch(bpt, grid_mus, eulers, scale)
        i = int(np.argmin(vals))
        cands = [(gp.ravel()[i], gt.ravel()[i]), (psi0, th0)]

        def f(x, phi=phi):
            return _ce_raw(bpt, m1, m2, m3, x[0], x[1], phi, scale)

        fx_best = math.inf
        for x0 in cands:
            fx = _pattern_search(f, x0, (0.2, 0.2), cfg)[1]
            fx_best = min(fx_best, fx)
        phi_values.append(float(phi))
        ce_values.append(fx_best)
    spread = max(ce_values) - min(ce_values)
    return PhiAuditReport(
        phi_values=tuple(phi_values),
        ce_values=tuple(ce_values),
        spread=spread,
        weights=w,
        base=base,
    )
