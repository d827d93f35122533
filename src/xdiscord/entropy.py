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


def _plogp(p: np.ndarray) -> np.ndarray:
    # 0*log(0) = 0 by branch, not epsilon-shift
    out = np.zeros_like(p)
    mask = p > 0.0
    out[mask] = p[mask] * np.log(p[mask])
    return out


def binary_entropy(x, base: LogBase = LogBase.BITS):
    """Entropy of the distribution {(1+x)/2, (1-x)/2}.

    Accepts a scalar or ndarray; |x| may exceed 1 by at most 1e-9
    (clamped), anything larger or NaN raises DomainError.
    """
    arr = np.asarray(x, dtype=float)
    if not np.all(np.abs(arr) <= 1.0 + X_DOMAIN_TOL):  # NaN fails too
        raise DomainError(f"binary_entropy argument out of [-1, 1]: {x!r}")
    arr = np.clip(arr, -1.0, 1.0)
    h = -(_plogp((1.0 + arr) / 2.0) + _plogp((1.0 - arr) / 2.0)) * _scale(base)
    return float(h) if np.isscalar(x) or np.ndim(x) == 0 else h


def _entropy_of_probs(lams: np.ndarray, base: LogBase) -> float:
    lams = np.asarray(lams, dtype=float)
    if np.any(lams < EIG_CLAMP):
        raise RuntimeError(f"eigenvalue below clamp tolerance: {lams.min()!r}")
    lams = np.clip(lams, 0.0, None)
    return -float(_plogp(lams).sum()) * _scale(base)


def von_neumann_xstate(s: XState, base: LogBase = LogBase.BITS) -> float:
    """Von Neumann entropy of an X state, from the block eigenvalues."""
    return _entropy_of_probs(eigenvalues(s), base)


def marginal_entropy_b(s: XState, base: LogBase = LogBase.BITS) -> float:
    """Shannon entropy of the subsystem-B marginal, whose Bloch vector
    is (0, 0, A)."""
    return binary_entropy(bloch_params(s).A, base)


def marginal_entropy_a(s: XState, base: LogBase = LogBase.BITS) -> float:
    """Shannon entropy of the subsystem-A marginal, whose Bloch vector
    is (0, 0, B)."""
    return binary_entropy(bloch_params(s).B, base)


def mutual_information(s: XState, base: LogBase = LogBase.BITS) -> float:
    """S(rho_A) + S(rho_B) - S(rho_AB)."""
    return (
        marginal_entropy_a(s, base)
        + marginal_entropy_b(s, base)
        - von_neumann_xstate(s, base)
    )
