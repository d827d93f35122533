"""Search for minimum conditional entropy over measurements.

Both searches are deterministic 1-D solves of one form (_solve_1d):
repeated scans, the first of n_global_samples points over the whole
interval, endpoints included, as interior optima exist, each later one
of min(REFINE_POINTS, n_global_samples) points over the two cells
either side of the previous scan's best point, a bracket holding one
minimum, until it is at most REFINE_TOL or n_refine_iters scans have
run. A solve builds its objective once (discord._plane_objective,
_mirror_objective), so each scan is one kernel call.

Projective case: an optimal axis lies in the plane of z and the
transverse axis with the larger |t|, so the solve runs over the axis's
z-component nz in [0, 1] (discord.conditional_entropy_plane).

3-element case: the solve runs over the mirror-symmetric triangle of
discord.conditional_entropy_mirror, a pole on the z axis and a mirror
pair in the same plane, and the result is the better of it and the
projective optimum. The tests certify it against every POVM, with any
number of outcomes, by 1-D LP duality: an outcome's term g(m) is at
least G(mz) (discord._plane_kernel), and a POVM has sum mu_k = 1 and
sum mu_k m_k = 0, so its conditional entropy is at least
min_z G(z) - lam z for any lam. From the chord of G through the
witness's support, a few simplex steps in lam meet it within 1e-12.
That bound is exact to its scans' resolution, not an interval bound.

Either 3-element witness is a planar triangle that _plane_euler turns
into the plane of the solves, its first direction on the mirror
triangle's pole or on the projective axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .discord import _mirror_objective, _plane_objective, mirror_weights, plane_direction
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


@dataclass(frozen=True)
class SearchConfig:
    """Budgets of the 1-D solves: points of the first scan (at least 4,
    so a scan narrows its bracket) and the cap on scan rounds."""

    n_global_samples: int = 2001
    n_refine_iters: int = 400

    def __post_init__(self):
        if self.n_global_samples < 4 or self.n_refine_iters < 1:
            raise ValueError(f"counts too small in {self}")


@dataclass(frozen=True)
class OptResult:
    """Outcome of a measurement search.

    best_value is the minimum conditional entropy found; the witness is
    (best_weights, best_euler) for the 3-element case and
    best_direction for the projective case. base is the log base of
    best_value. n_evals counts the objective evaluations of the
    search's own 1-D solve, over all its scans, and
    converged reports whether the solve that produced best_value
    narrowed its bracket to REFINE_TOL.
    """

    best_value: float
    n_evals: int
    converged: bool
    base: LogBase
    best_weights: PovmWeights | None = None
    best_euler: EulerAngles | None = None
    best_direction: tuple[float, float, float] | None = None


def _solve_1d(f, lo: float, hi: float, cfg: SearchConfig):
    """Minimize the vectorized f over [lo, hi] by the repeated scans of
    the module docstring. Returns (x, f(x), number of f evaluations,
    converged), x the best point over all rounds."""
    # linspace's arithmetic; a later scan uses the ramp's leading points
    ramp = np.arange(cfg.n_global_samples, dtype=float)
    best_x, best_f, n_evals = lo, math.inf, 0
    for _ in range(cfg.n_refine_iters):
        n = len(ramp)
        grid = ramp * ((hi - lo) / (n - 1)) + lo
        grid[-1] = hi
        vals = f(grid)
        n_evals += n
        i = int(np.argmin(vals))
        if vals[i] < best_f:
            best_x, best_f = float(grid[i]), float(vals[i])
        lo, hi = float(grid[max(i - 1, 0)]), float(grid[min(i + 1, n - 1)])
        if hi - lo <= REFINE_TOL:
            break
        ramp = ramp[:REFINE_POINTS]
    return best_x, best_f, n_evals, hi - lo <= REFINE_TOL


def minimize_projective(
    s: XState, cfg: SearchConfig = SearchConfig(), base: LogBase = LogBase.BITS
) -> OptResult:
    """Minimum projective conditional entropy over the unit sphere.

    Exact up to REFINE_TOL: the optimal axis lies in the plane of
    conditional_entropy_plane, whose z-component nz is solved over
    [0, 1]; both endpoints, the ali_candidate axes, are scanned. The
    direction returned lies in the xz or the yz plane.
    """
    nz, value, n_evals, converged = _solve_1d(_plane_objective(s, base), 0.0, 1.0, cfg)
    return OptResult(
        best_value=value,
        n_evals=n_evals,
        converged=converged,
        base=base,
        best_direction=plane_direction(s, nz),
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
    proj wins ties. A proj without best_direction or of another base
    raises ValueError.
    The witness rebuilds through povm.build_povm3: the mirror triangle
    itself, or, when proj wins, the (WEIGHT_HI, WEIGHT_HI, 1 - 2 WEIGHT_HI)
    triple with its first direction on proj's axis, whose value is
    proj's to within ~1e-9.
    """
    if proj is None:
        proj = minimize_projective(s, cfg, base)
    elif proj.best_direction is None or proj.base is not base:
        raise ValueError(f"proj must be minimize_projective(s, cfg, base) in {base.value}")
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
    )
