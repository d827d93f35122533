"""Entropy kernels with selectable logarithm base.

All internal sums are taken in natural log and rescaled, so the bits
and nats values of any quantity differ by exactly a factor ln 2.
"""

from __future__ import annotations

import enum
import math

import numpy as np

from .errors import DomainError
from .qstate import XState, bloch_params, eigenvalues

X_DOMAIN_TOL = 1e-9
EIG_CLAMP = -1e-10


class LogBase(enum.Enum):
    BITS = "bits"
    NATS = "nats"


def _scale(base: LogBase) -> float:
    return 1.0 / math.log(2.0) if base is LogBase.BITS else 1.0


_TINY = np.finfo(float).smallest_subnormal


def _xlogx(q):
    """q log q for q >= 0, with 0 log 0 = 0: the log is taken at
    max(q, smallest positive double), which leaves every q > 0 as it is
    and needs no mask."""
    return q * np.log(np.maximum(q, _TINY))


def _h(x, scale: float):
    """Binary entropy of {(1+x)/2, (1-x)/2} times scale, unchecked:
    x must lie in [-1, 1]."""
    return (_xlogx((1.0 + x) / 2.0) + _xlogx((1.0 - x) / 2.0)) * -scale


def binary_entropy(x, base: LogBase = LogBase.BITS):
    """Entropy of the distribution {(1+x)/2, (1-x)/2}.

    Accepts a scalar or ndarray; |x| may exceed 1 by at most 1e-9
    (clamped), anything larger or NaN raises DomainError.
    """
    arr = np.asarray(x, dtype=float)
    if not np.all(np.abs(arr) <= 1.0 + X_DOMAIN_TOL):  # NaN fails too
        raise DomainError(f"binary_entropy argument out of [-1, 1]: {x!r}")
    h = _h(np.clip(arr, -1.0, 1.0), _scale(base))
    return float(h) if np.isscalar(x) or np.ndim(x) == 0 else h


def von_neumann_xstate(s: XState, base: LogBase = LogBase.BITS) -> float:
    """Von Neumann entropy of an X state, from the block eigenvalues."""
    lams = eigenvalues(s)
    if np.any(lams < EIG_CLAMP):
        raise RuntimeError(f"eigenvalue below clamp tolerance: {lams.min()!r}")
    return -float(_xlogx(np.clip(lams, 0.0, None)).sum()) * _scale(base)


def marginal_entropy_b(s: XState, base: LogBase = LogBase.BITS) -> float:
    """Shannon entropy of the subsystem-B marginal, whose Bloch vector
    is (0, 0, A)."""
    return binary_entropy(bloch_params(s).A, base)


def mutual_information(s: XState, base: LogBase = LogBase.BITS) -> float:
    """S(rho_A) + S(rho_B) - S(rho_AB); the A marginal's Bloch vector is
    (0, 0, B)."""
    s_a = binary_entropy(bloch_params(s).B, base)
    return s_a + marginal_entropy_b(s, base) - von_neumann_xstate(s, base)
