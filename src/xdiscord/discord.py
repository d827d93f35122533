"""Post-measurement conditional entropy and quantum discord evaluation.

Measuring subsystem B with a rank-1 element mu (I + m.sigma) leaves
subsystem A in a qubit state whose Bloch length is

    E(m) = sqrt((t1 mx)^2 + (t2 my)^2 + (t3 mz + B)^2) / (1 + A mz),

so the outcome contributes probability mu (1 + A mz) and entropy h(E).
Every conditional entropy here is a weighted sum of one vectorized
per-outcome term (1 + A mz) h(E) (_outcome_term), and discord adds
the minimum to S(rho_B) - S(rho_AB), which _discords takes once.

Projective measurements reduce to one variable (conditional_entropy_plane),
whose endpoints give delta2: the better of the z axis and the larger
transverse axis, as in Ali-Rau-Alber (ali_candidate). The 3-element
search runs over one variable too, the mirror-symmetric triangle of
_mirror_objective. Both read G(z), the term of the direction with
z-component z in the plane of the two (_plane_kernel); a solve builds
each objective once (_plane_halves, _mirror_objective), with the
state's constants and the pole terms G(+-1) fixed there, so a call is
one kernel call. conditional_entropy_projective and
conditional_entropy_povm3 take general directions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from .entropy import LogBase, _h, _scale, marginal_entropy_b, von_neumann_xstate
from .povm import Povm3
from .qstate import XState, bloch_params

PROB_FLOOR = 1e-12
UNIT_NORM_TOL = 1e-10


@dataclass(frozen=True)
class DiscordValue:
    """Discord value with the conditional entropy and witness that produced it."""

    value: float
    conditional_entropy: float
    base: LogBase
    witness: Any = None


def _bloch_length(bp, tt, mz):
    """(1 + A mz, E clamped to [0, 1]) of the outcome directions with
    z-component mz and transverse part tt = (t1 mx)^2 + (t2 my)^2,
    vectorized; E divides by 1 + A mz floored at PROB_FLOOR. It squares
    by a product: ** 2 of a numpy scalar is libm pow, which can round
    1 ulp away from the same square in an array."""
    den, u = 1.0 + bp.A * mz, bp.t3 * mz + bp.B
    e = np.sqrt(tt + u * u) / np.maximum(den, PROB_FLOOR)
    return den, np.minimum(e, 1.0)  # e >= 0 already


def _outcome_term(bp, tt, mz, scale: float):
    """Per-outcome term (1 + A mz) h(E) of _bloch_length's directions,
    h times scale (entropy._scale); continuous where the outcome's
    probability 1 + A mz falls to 0, and 0 there."""
    den, e = _bloch_length(bp, tt, mz)
    return np.maximum(den, 0.0) * _h(e, scale)


def _transverse(bp, dirs):
    """(t1 mx)^2 + (t2 my)^2 of the directions in the last axis of dirs."""
    return np.square(bp.t1 * dirs[..., 0]) + np.square(bp.t2 * dirs[..., 1])


def _check_unit(m) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if m.shape != (3,):
        raise ValueError(f"direction must have 3 components, got shape {m.shape}")
    norm = math.sqrt(float(m @ m))
    if not abs(norm - 1.0) <= UNIT_NORM_TOL:  # NaN fails too
        raise ValueError(f"direction norm {norm!r} deviates from 1")
    return m


def conditional_entropy_povm3(s: XState, p: Povm3, base: LogBase = LogBase.BITS) -> float:
    """Average post-measurement entropy sum_k p_k h(E_k) for a 3-element POVM."""
    bp = bloch_params(s)
    terms = _outcome_term(bp, _transverse(bp, p.dirs), p.dirs[:, 2], _scale(base))
    return float(p.weights.as_array() @ terms)


def conditional_entropy_projective(s: XState, n, base: LogBase = LogBase.BITS) -> float:
    """Two-outcome specialization: antipodal directions n and -n, weights 1/2."""
    n = _check_unit(n)
    bp = bloch_params(s)
    terms = _outcome_term(bp, _transverse(bp, n), np.array([n[2], -n[2]]), _scale(base))
    return 0.5 * float(terms.sum())


def _discords(s: XState, ces, base: LogBase) -> list[float]:
    """S(rho_B) - S(rho_AB) + ce for each checked ce of ces, the entropies once."""
    offset = marginal_entropy_b(s, base) - von_neumann_xstate(s, base)
    for ce in ces:
        if not -PROB_FLOOR <= ce < math.inf:  # NaN fails too
            raise ValueError(f"conditional entropy {ce!r} is negative or not finite")
    return [offset + ce for ce in ces]


def discord_given_conditional_entropy(
    s: XState, ce: float, witness: Any, base: LogBase = LogBase.BITS
) -> DiscordValue:
    """Assemble a DiscordValue: S(rho_B) - S(rho_AB) + ce."""
    [value] = _discords(s, (ce,), base)
    return DiscordValue(value=value, conditional_entropy=ce, base=base, witness=witness)


def plane_direction(s: XState, nz: float) -> tuple[float, float, float]:
    """Unit direction with z-component nz in the plane of z and the
    transverse axis, x or y, with the larger |t|; ties go to x."""
    bp = bloch_params(s)
    st = math.sqrt(max(1.0 - nz * nz, 0.0))
    return (st, 0.0, nz) if abs(bp.t1) >= abs(bp.t2) else (0.0, st, nz)


def _plane_kernel(s: XState, base: LogBase):
    """G(z): _outcome_term of the direction with z-component z in the
    plane of plane_direction, vectorized over z."""
    bp = bloch_params(s)
    tmax, scale = max(bp.t1 * bp.t1, bp.t2 * bp.t2), _scale(base)
    return lambda mz: _outcome_term(bp, tmax * (1.0 - mz * mz), mz, scale)


def _plane_halves(s: XState, base: LogBase):
    """(G(nz), G(-nz)), stacked, in one kernel call, vectorized over nz."""
    g = _plane_kernel(s, base)

    def halves(nz):
        nz = np.asarray(nz, dtype=float)
        return g(np.concatenate((nz, -nz), axis=None)).reshape((2, *nz.shape))

    return halves


def _plane_mean(halves):
    """conditional_entropy_plane from _plane_halves' values."""
    up, down = halves
    return 0.5 * up + 0.5 * down


def conditional_entropy_plane(s: XState, nz, base: LogBase = LogBase.BITS):
    """Projective conditional entropy at plane_direction(s, nz), vectorized over nz.

    E(m) sees mx and my only through t1^2 mx^2 + t2^2 my^2 and h falls
    as E grows, so an optimal projective axis lies in the plane of z and
    the transverse axis with the larger |t|; this is the exact 1-D
    reduction the projective search runs over nz in [0, 1].
    """
    return _plane_mean(_plane_halves(s, base)(nz))


def mirror_weights(t):
    """Weights (mu1, mu2) of the pole and of each mirror direction of
    the triangle of _mirror_objective at t."""
    mu2 = 0.5 / (1.0 + abs(t))
    return 1.0 - 2.0 * mu2, mu2


def _mirror_objective(s: XState, base: LogBase):
    """3-element conditional entropy of the mirror-symmetric triangle at
    t in [-1, 1], vectorized over t; G(+-1) once, G at -t per call.

    The pole (0, 0, sign t) has weight mu1 and each of the mirror pair
    (+-sqrt(1 - t^2), 0, -t), in the plane of plane_direction, weight
    mu2 = 1 / (2 (1 + |t|)), which completeness fixes. The two halves
    meet at t = 0, the transverse-axis measurement, and each ends at
    the z-axis measurement.
    """
    g = _plane_kernel(s, base)
    south, north = g(np.array([-1.0, 1.0]))

    def f(t):
        t = np.asarray(t, dtype=float)
        mu1, mu2 = mirror_weights(t)
        # the pole is on the side of t; at t = 0, mu1 = 0
        return mu1 * np.where(t < 0.0, south, north) + 2.0 * mu2 * g(-t)

    return f


def ali_candidate(s: XState, base: LogBase = LogBase.BITS) -> DiscordValue:
    """Discord from the better of the z axis and the larger transverse axis.

    These are the axis candidates of Ali, Rau and Alber (PRA 81, 042105
    (2010)): the endpoints nz = 1 and nz = 0 of conditional_entropy_plane,
    which minimize_projective scans too (OptResult.axis_value), so its
    optimum is never above this one. Ties go to z.
    """
    ce_z, ce_t = conditional_entropy_plane(s, (1.0, 0.0), base)
    nz, ce = (1.0, ce_z) if ce_z <= ce_t else (0.0, ce_t)
    n = np.array(plane_direction(s, nz))
    witness = {"kind": "projective-axis", "axis": "xyz"[int(np.argmax(n))], "direction": n}
    return discord_given_conditional_entropy(s, float(ce), witness, base)
