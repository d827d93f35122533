"""Search for minimum conditional entropy over measurements.

Both searches are deterministic 1-D solves of one form (_solve_1d):
repeated scans, the first of n_global_samples points over the whole
interval, endpoints included, as interior optima exist, each later one
of min(REFINE_POINTS, n_global_samples) points over the two cells
either side of the previous scan's best point, a bracket holding one
minimum, until it is at most REFINE_TOL or n_refine_iters scans have
run. A solve builds its objective once (discord._plane_halves,
_mirror_objective), so each scan is one kernel call.

Projective case: an optimal axis lies in the plane of z and the
transverse axis with the larger |t|, so the solve runs over the axis's
z-component nz in [0, 1] (discord.conditional_entropy_plane).

3-element case: the solve runs over the mirror-symmetric triangle of
discord._mirror_objective, a pole on the z axis and a mirror
pair in the same plane, and the result is the better of it and the
projective optimum. The tests certify it against every POVM, with any
number of outcomes, by 1-D LP duality: an outcome's term g(m) is at
least G(mz) (discord._plane_kernel), and a POVM has sum mu_k = 1 and
sum mu_k m_k = 0, so its conditional entropy is at least
min_z G(z) - lam z for any lam. From the chord of G through the
witness's support, a few simplex steps in lam meet it within 1e-12.
That bound is exact to its scans' resolution, not an interval bound.

The projective solve's first scan reads the same bound for free: its
points give G at +-nz, the whole of [-1, 1], and lam is the chord
slope of G at the better axis, an Ali-Rau-Alber candidate. When the
bound meets that axis's value within CERT_TOL, the axis is optimal
over all POVMs to the scan's resolution and both solves stop there.
A first scan of fewer than REFINE_POINTS points certifies nothing; a
known limitation is that a larger one can still step over a narrow
dip of G below the chord and certify a wrong axis (ROADMAP item 2).

Either 3-element witness is a planar triangle that _plane_euler turns
into the plane of the solves, its first direction on the mirror
triangle's pole or on the projective axis.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .discord import _mirror_objective, _plane_halves, _plane_mean, mirror_weights, plane_direction
from .entropy import LogBase
from .povm import TRIANGLE_MARGIN, EulerAngles, PovmWeights
from .qstate import XState

# box of a witness weight: the mirror triangle's pole weight
# mu1 = |t| / (1 + |t|) stays in it, and a projective witness takes
# WEIGHT_HI twice; 1e-12 inside the admissible margins so weight triples
# at its ends still validate strictly
WEIGHT_LO = TRIANGLE_MARGIN + 1e-12
WEIGHT_HI = (1.0 - TRIANGLE_MARGIN) / 2.0 - 1e-12
MIRROR_T_LO = WEIGHT_LO / (1.0 - WEIGHT_LO)
MIRROR_T_HI = WEIGHT_HI / (1.0 - WEIGHT_HI)
# bracket width at which a 1-D solve has converged
REFINE_TOL = 1e-10
# points of each scan after the first, which narrows its bracket 100-fold:
# four take the 1e-3 or 2e-3 a default first scan leaves to REFINE_TOL
REFINE_POINTS = 201
# slack of the axis certificate: at the z axis the chord meets G at
# +-1, so the bound equals the axis's value up to rounding
CERT_TOL = 1e-13


@dataclass(frozen=True)
class SearchConfig:
    """Budgets of the 1-D solves, integers: points of the first scan (at
    least 4, so a scan narrows its bracket) and the cap on scan rounds."""

    n_global_samples: int = 2001
    n_refine_iters: int = 400

    def __post_init__(self):
        try:  # numpy integers pass, floats and NaN do not
            n, iters = operator.index(self.n_global_samples), operator.index(self.n_refine_iters)
        except TypeError:
            raise ValueError(f"counts must be integers in {self}") from None
        if n < 4 or iters < 1:
            raise ValueError(f"counts too small in {self}")


@dataclass(frozen=True)
class OptResult:
    """Outcome of a measurement search, in log base base.

    best_value is the minimum conditional entropy found; its witness is
    (best_weights, best_euler) for the 3-element case and
    best_direction for the projective case. n_evals counts the
    objective evaluations of the search's own 1-D solve; converged
    reports whether the solve that produced best_value narrowed its
    bracket to REFINE_TOL. The projective first scan gives axis_value,
    the conditional entropy of the better Ali-Rau-Alber axis (nz = 0
    or 1, as discord.ali_candidate; inf with no scan), and lower_bound,
    a bound on that of every POVM, exact to the scan's resolution, -inf
    below REFINE_POINTS points; the 3-element search passes both on. At
    a lower_bound within CERT_TOL of axis_value the axis is certified:
    the projective search stops after its first scan, which n_evals
    counts, and best_value is axis_value; the 3-element search solves
    nothing, n_evals 0; both report converged.
    """

    best_value: float
    n_evals: int
    converged: bool
    base: LogBase
    best_weights: PovmWeights | None = None
    best_euler: EulerAngles | None = None
    best_direction: tuple[float, float, float] | None = None
    lower_bound: float = -math.inf
    axis_value: float = math.inf


def _scan(f, lo: float, hi: float, ramp):
    """(grid, f(grid)) on len(ramp) evenly spaced points of [lo, hi],
    both ends included, ramp = arange(len(ramp)): linspace's arithmetic."""
    grid = ramp * ((hi - lo) / (len(ramp) - 1)) + lo
    grid[-1] = hi
    return grid, f(grid)


def _solve_1d(f, lo: float, hi: float, cfg: SearchConfig, first=None):
    """Minimize the vectorized f over [lo, hi] by the repeated scans of
    the module docstring; first, when given, is the first scan's
    _scan result, which is not evaluated again. Returns (x, f(x),
    number of f evaluations, converged), x the best point over all
    rounds."""
    # a later scan uses the ramp's leading points
    ramp = np.arange(cfg.n_global_samples, dtype=float)
    grid, vals = first or _scan(f, lo, hi, ramp)
    best_x, best_f, n_evals = lo, math.inf, 0
    for k in range(cfg.n_refine_iters):
        if k:
            grid, vals = _scan(f, lo, hi, ramp[:REFINE_POINTS])
        n = len(grid)
        n_evals += n
        i = int(np.argmin(vals))
        if vals[i] < best_f:
            best_x, best_f = float(grid[i]), float(vals[i])
        lo, hi = float(grid[max(i - 1, 0)]), float(grid[min(i + 1, n - 1)])
        if hi - lo <= REFINE_TOL:
            break
    return best_x, best_f, n_evals, hi - lo <= REFINE_TOL


def minimize_projective(
    s: XState, cfg: SearchConfig = SearchConfig(), base: LogBase = LogBase.BITS
) -> OptResult:
    """Minimum projective conditional entropy over the unit sphere.

    Exact up to REFINE_TOL: the optimal axis lies in the plane of
    conditional_entropy_plane, whose z-component nz is solved over
    [0, 1]; both endpoints, the ali_candidate axes, are scanned. The
    direction returned lies in the xz or the yz plane. The first scan
    gives lower_bound and axis_value, and the better axis returns at
    once when the bound certifies it (module docstring).
    """
    halves = _plane_halves(s, base)
    grid, (up, down) = _scan(halves, 0.0, 1.0, np.arange(cfg.n_global_samples, dtype=float))
    vals = _plane_mean((up, down))
    # the better axis, ties to the transverse one as in the scan's argmin
    i = 0 if vals[0] <= vals[-1] else -1
    lower_bound = -math.inf
    if len(grid) >= REFINE_POINTS:
        if i:  # the z axis: the chord of G through -1 and 1
            lam = 0.5 * (up[-1] - down[-1])
        else:  # the transverse axis: between G's one-sided slopes at 0
            z = grid[1:]
            lam = 0.5 * (np.max((up[0] - down[1:]) / z) + np.min((up[1:] - up[0]) / z))
        lower_bound = float(min(np.min(up - lam * grid), np.min(down + lam * grid)))
    if lower_bound >= vals[i] - CERT_TOL:
        nz, value, n_evals, converged = float(grid[i]), float(vals[i]), len(grid), True
    else:
        nz, value, n_evals, converged = _solve_1d(
            lambda nz: _plane_mean(halves(nz)), 0.0, 1.0, cfg, (grid, vals)
        )
    return OptResult(
        best_value=value,
        n_evals=n_evals,
        converged=converged,
        base=base,
        best_direction=plane_direction(s, nz),
        lower_bound=lower_bound,
        axis_value=float(vals[i]),
    )


def _mirror_t(t):
    """t with |t| raised to MIRROR_T_LO: the pole weight stays in
    [WEIGHT_LO, WEIGHT_HI] on the solve's interval, so every mirror
    triangle it reports validates."""
    return np.copysign(np.maximum(np.abs(t), MIRROR_T_LO), t)


def _plane_euler(s: XState, n) -> EulerAngles:
    """Orientation taking the planar triangle into the plane of
    plane_direction, its first direction to the unit vector n of that
    plane."""
    nx, ny, nz = n
    if plane_direction(s, 0.0)[1] == 0.0:  # the xz plane
        return EulerAngles(0.0, math.pi / 2.0, math.atan2(nz, nx))
    return EulerAngles(-math.pi / 2.0, 0.0, math.atan2(ny, nz))


def minimize_povm3(
    s: XState,
    cfg: SearchConfig = SearchConfig(),
    base: LogBase = LogBase.BITS,
    proj: OptResult | None = None,
) -> OptResult:
    """Minimum 3-element POVM conditional entropy.

    The better of the mirror-triangle solve over t in
    [-MIRROR_T_HI, MIRROR_T_HI] and proj, which must be
    minimize_projective(s, cfg, base) and is solved here when omitted;
    proj wins ties, and a proj whose lower_bound certifies it wins
    with no mirror solve. A proj without best_direction or of another
    base raises ValueError.
    The witness rebuilds through povm.build_povm3: the mirror triangle
    itself, or, when proj wins, the (WEIGHT_HI, WEIGHT_HI, 1 - 2 WEIGHT_HI)
    triple with its first direction on proj's axis, whose value is
    proj's to within ~1e-9.
    """
    if proj is None:
        proj = minimize_projective(s, cfg, base)
    elif proj.best_direction is None or proj.base is not base:
        raise ValueError(f"proj must be minimize_projective(s, cfg, base) in {base.value}")
    value, n_evals = math.inf, 0
    if proj.lower_bound < proj.best_value - CERT_TOL:
        mirror = _mirror_objective(s, base)
        t, value, n_evals, converged = _solve_1d(
            lambda t: mirror(_mirror_t(t)), -MIRROR_T_HI, MIRROR_T_HI, cfg
        )
    if value < proj.best_value:
        t = float(_mirror_t(t))
        mu1, mu2 = mirror_weights(t)
        weights = PovmWeights(mu1, mu2, mu2)
        n = (0.0, 0.0, math.copysign(1.0, t))
    else:
        value, converged = proj.best_value, proj.converged
        weights = PovmWeights(WEIGHT_HI, WEIGHT_HI, 1.0 - 2.0 * WEIGHT_HI)
        n = proj.best_direction
    return OptResult(
        best_value=value,
        n_evals=n_evals,
        converged=converged,
        base=base,
        best_weights=weights,
        best_euler=_plane_euler(s, n),
        lower_bound=proj.lower_bound,
        axis_value=proj.axis_value,
    )
