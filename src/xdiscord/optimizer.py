"""Search for minimum conditional entropy over measurements.

Projective case: exact 1-D reduction. An optimal axis lies in the
plane of z and the transverse axis with the larger |t|, so the search
scans its z-component nz over [0, 1], endpoints included, and refines
the best cell by golden-section search down to refine_tol. The result
also seeds the near-projective start of the 3-element search, which
takes it as an argument so callers that need both solve it once.

3-element case: Monte-Carlo sampling over the admissible weight region
and Euler cube, then derivative-free pattern search over the five
effective coordinates (mu1, mu2, psi, theta, phi) from the best
candidates. Steps are reset to their initial size a few times after
each convergence so the search can escape curved valleys; weight
iterates leaving the admissible region are projected exactly onto the
admissible box (the Euclidean projection has a piecewise-linear closed
form, so no iteration is needed). The starts are refined in turn, and
a start stops after any reset round that ends above the best value of
the starts before it: it cannot win, since the incumbent only falls.
The winning (weights, Euler angles) always rebuilds into a POVM through
povm.build_povm3, degenerate (near-projective) optima included.

3-element global sampling runs through a vectorized batch kernel;
refinement uses a scalar kernel. Both implement the same closed-form
objective and agree to rounding error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .discord import conditional_entropy_plane, plane_direction
from .entropy import LogBase, _plogp
from .povm import TRIANGLE_MARGIN, EulerAngles, PovmWeights
from .qstate import XState, bloch_params

N_REFINE_CANDIDATES = 10
RESET_ROUNDS = 3
PHI_GRID_POINTS = 16
ORIENT_GRID = 24
NEAR_PROJECTIVE_MU3 = 1e-6
PROB_FLOOR = 1e-12
PROJ_SCAN_POINTS = 2001
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# initial pattern-search steps over (mu1, mu2, psi, theta, phi)
POVM3_STEPS = (0.02, 0.02, 0.1, 0.1, 0.1)

# projection box sits 1e-12 inside the admissible margins so weight
# triples at its corners still validate strictly
PROJ_LO = TRIANGLE_MARGIN + 1e-12
PROJ_HI = (1.0 - TRIANGLE_MARGIN) / 2.0 - 1e-12

TWO_PI = 2.0 * math.pi
LN2 = math.log(2.0)

# moves must improve the objective by more than floating-point noise,
# otherwise rounding jitter along flat directions stalls step halving
IMPROVE_EPS = 1e-15


@dataclass(frozen=True)
class SearchConfig:
    """Budgets and seed for the measurement search."""

    seed: int = 7
    n_global_samples: int = 20000
    n_refine_iters: int = 400
    refine_tol: float = 1e-10

    def __post_init__(self):
        if self.n_global_samples < 1 or self.n_refine_iters < 1:
            raise ValueError(f"counts too small in {self}")
        if not self.refine_tol > 0.0:
            raise ValueError(f"refine_tol must be positive, got {self.refine_tol!r}")


@dataclass(frozen=True)
class OptResult:
    """Outcome of a measurement search.

    best_value is the minimum conditional entropy found; the witness is
    (best_weights, best_euler) for the 3-element case and
    best_direction for the projective case. converged reports whether
    the refinement that produced best_value shrank its steps below
    refine_tol (other, dominated starts may stop at the sweep budget, or
    after a reset round that leaves them above the incumbent).
    """

    best_value: float
    n_evals: int
    converged: bool
    best_weights: PovmWeights | None = None
    best_euler: EulerAngles | None = None
    best_direction: tuple[float, float, float] | None = None


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


def _h_nats(e: float) -> float:
    p = (1.0 + e) / 2.0
    q = (1.0 - e) / 2.0
    out = 0.0
    if p > 0.0:
        out -= p * math.log(p)
    if q > 0.0:
        out -= q * math.log(q)
    return out


def _ce_raw(bpt, m1, m2, m3, psi, theta, phi, scale):
    """Scalar 3-POVM conditional entropy from the closed-form directions."""
    A, B, t1, t2, t3 = bpt
    c12 = (m3 * m3 - m1 * m1 - m2 * m2) / (2.0 * m1 * m2)
    c13 = (m2 * m2 - m1 * m1 - m3 * m3) / (2.0 * m1 * m3)
    t12 = math.acos(min(max(c12, -1.0), 1.0))
    t13 = math.acos(min(max(c13, -1.0), 1.0))
    cps, sps = math.cos(psi), math.sin(psi)
    cth, sth = math.cos(theta), math.sin(theta)
    tot = 0.0
    for mu, ang in ((m1, 0.0), (m2, t12), (m3, -t13)):
        beta = ang + phi
        cb, sb = math.cos(beta), math.sin(beta)
        mx = cb * cps + sb * sps * sth
        my = sb * cth
        mz = sb * cps * sth - cb * sps
        den = 1.0 + A * mz
        if den <= PROB_FLOOR:
            continue
        e = math.sqrt((t1 * mx) ** 2 + (t2 * my) ** 2 + (t3 * mz + B) ** 2) / den
        tot += mu * den * _h_nats(min(e, 1.0))
    return tot * scale


def _ce_batch(bpt, mus, eulers, scale):
    """Vectorized counterpart of _ce_raw over candidate rows."""
    A, B, t1, t2, t3 = bpt
    m1, m2, m3 = mus[:, 0], mus[:, 1], mus[:, 2]
    c12 = np.clip((m3 * m3 - m1 * m1 - m2 * m2) / (2.0 * m1 * m2), -1.0, 1.0)
    c13 = np.clip((m2 * m2 - m1 * m1 - m3 * m3) / (2.0 * m1 * m3), -1.0, 1.0)
    t12, t13 = np.arccos(c12), np.arccos(c13)
    cps, sps = np.cos(eulers[:, 0]), np.sin(eulers[:, 0])
    cth, sth = np.cos(eulers[:, 1]), np.sin(eulers[:, 1])
    phs = eulers[:, 2]
    tot = np.zeros(len(mus))
    for mu, ang in ((m1, 0.0), (m2, t12), (m3, -t13)):
        beta = ang + phs
        cb, sb = np.cos(beta), np.sin(beta)
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
    v = (m1, m2, 1.0 - m1 - m2)
    if all(PROJ_LO <= x <= PROJ_HI for x in v):
        return m1, m2

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


def _pattern_search(f, x0, steps0, cfg, weights=False, incumbent=math.inf):
    """Greedy coordinate pattern search with step-reset rounds.

    Accepts any strict improvement along a coordinate step; halves all
    steps when a full sweep yields none. After converging, steps reset
    to their initial size and the search repeats, which lets the
    iterate continue along valleys not aligned with the axes.

    With weights true, x[0] and x[1] are the weights mu1, mu2: the
    start is projected onto the admissible box once, and only trials
    that move one of them are projected again, since trials along the
    other coordinates leave the weights unchanged and in the box.

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
                    if weights and i < 2:
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


def minimize_projective(
    s: XState, cfg: SearchConfig = SearchConfig(), base: LogBase = LogBase.BITS
) -> OptResult:
    """Minimum projective conditional entropy over the unit sphere.

    Deterministic and exact up to refine_tol: the optimal axis lies in
    the plane of conditional_entropy_plane, so a fixed scan over its
    z-component nz in [0, 1] (both endpoints, the ali_candidate axes,
    included) is refined by golden-section search on the cells either
    side of the best scan point. Interior optima exist, so the whole
    interval is scanned. The direction returned lies in the xz or the
    yz plane.
    """
    def f(nz):
        return float(conditional_entropy_plane(s, nz, base))

    grid = np.linspace(0.0, 1.0, PROJ_SCAN_POINTS)
    vals = conditional_entropy_plane(s, grid, base)
    i = int(np.argmin(vals))
    best_nz, best_f = float(grid[i]), float(vals[i])
    lo, hi = float(grid[max(i - 1, 0)]), float(grid[min(i + 1, PROJ_SCAN_POINTS - 1)])
    x1, x2 = hi - GOLDEN * (hi - lo), lo + GOLDEN * (hi - lo)
    f1, f2 = f(x1), f(x2)
    n_evals = PROJ_SCAN_POINTS + 2
    budget = n_evals + cfg.n_refine_iters
    while hi - lo > cfg.refine_tol and n_evals < budget:
        if f1 < f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - GOLDEN * (hi - lo)
            f1 = f(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + GOLDEN * (hi - lo)
            f2 = f(x2)
        n_evals += 1
    best_f, best_nz = min((best_f, best_nz), (f1, x1), (f2, x2))
    return OptResult(
        best_value=best_f,
        n_evals=n_evals,
        converged=hi - lo <= cfg.refine_tol,
        best_direction=plane_direction(s, best_nz),
    )


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


def minimize_povm3(
    s: XState,
    cfg: SearchConfig = SearchConfig(),
    base: LogBase = LogBase.BITS,
    proj: OptResult | None = None,
) -> OptResult:
    """Minimum 3-element POVM conditional entropy.

    Monte-Carlo over (weights, Euler angles), then pattern-search
    refinement of the best candidates plus a near-projective start
    seeded from proj, the result of minimize_projective(s, cfg, base);
    it is solved here when omitted, with bit-identical results.
    Deterministic for a fixed config.
    """
    if proj is None:
        proj = minimize_projective(s, cfg, base)
    bpt = _bloch_tuple(s)
    scale = _scale(base)
    rng = np.random.default_rng(cfg.seed)
    mus = _sample_weights_batch(rng, cfg.n_global_samples)
    eulers = rng.uniform(0.0, TWO_PI, size=(cfg.n_global_samples, 3))
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
        best_weights=weights,
        best_euler=euler,
    )


def phi_invariance_audit(
    s: XState, cfg: SearchConfig = SearchConfig(), base: LogBase = LogBase.BITS
) -> PhiAuditReport:
    """Check that the refined minimum does not depend on phi.

    Holds the optimizer's best weights fixed, sweeps phi over a grid,
    and re-minimizes over (psi, theta) at each point: a coarse
    orientation grid plus the incumbent, refined by pattern search.
    Reports max - min of the refined conditional entropies.
    """
    best = minimize_povm3(s, cfg, base)
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
