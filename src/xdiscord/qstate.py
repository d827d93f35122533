"""Two-qubit X states: validation, Bloch parameters, eigenvalues.

An X state has nonzero entries only on the main diagonal and the
anti-diagonal of its 4x4 density matrix,

    [[a, 0, 0, eps],
     [0, b, delta, 0],
     [0, delta, c, 0],
     [eps, 0, 0, d]]

with all entries real. Positivity is equivalent to the two block
conditions a*d >= eps**2 and b*c >= delta**2. The marginals are
diagonal, so the Bloch parameters A and B (the z-components of the B
and A marginals) are all that the marginal entropies need.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PositivityError, TraceError

TRACE_INPUT_TOL = 1e-9
INTERNAL_TOL = 1e-12


@dataclass(frozen=True)
class XState:
    """Validated two-qubit X state.

    Parameters
    ----------
    a, b, c, d : float
        Diagonal populations, summing to 1.
    eps : float
        Real coherence between |00> and |11>.
    delta : float
        Real coherence between |01> and |10>.
    """

    a: float
    b: float
    c: float
    d: float
    eps: float
    delta: float

    def __post_init__(self):
        vals = (self.a, self.b, self.c, self.d, self.eps, self.delta)
        if not all(math.isfinite(v) for v in vals):
            raise ValueError(f"non-finite X-state entries {vals}")
        tr = self.a + self.b + self.c + self.d
        if abs(tr - 1.0) > INTERNAL_TOL:
            raise TraceError(f"diagonal sums to {tr!r}, expected 1")
        for name in ("a", "b", "c", "d"):
            if getattr(self, name) < -INTERNAL_TOL:
                raise PositivityError(f"negative population {name}={getattr(self, name)!r}")
        if self.a * self.d < self.eps**2 - INTERNAL_TOL:
            raise PositivityError(f"a*d = {self.a * self.d!r} < eps^2 = {self.eps**2!r}")
        if self.b * self.c < self.delta**2 - INTERNAL_TOL:
            raise PositivityError(f"b*c = {self.b * self.c!r} < delta^2 = {self.delta**2!r}")


@dataclass(frozen=True)
class BlochParams:
    """Pauli-expansion coefficients of an X state.

    A and B are the local-Z coefficients of subsystems B and A
    respectively; t1, t2, t3 are the diagonal correlation-tensor
    entries.
    """

    A: float
    B: float
    t1: float
    t2: float
    t3: float


def xstate_from_entries(a, b, c, d, eps, delta):
    """Build a validated XState from matrix entries.

    Entries whose diagonal sums to 1 within 1e-9 are accepted and then
    renormalized exactly by the trace, so values quoted to 6 decimals
    round-trip cleanly.

    Raises
    ------
    TraceError
        If a+b+c+d deviates from 1 by more than 1e-9.
    PositivityError
        If a block condition fails beyond tolerance.
    """
    vals = [float(v) for v in (a, b, c, d, eps, delta)]
    if not all(math.isfinite(v) for v in vals):
        raise ValueError(f"non-finite X-state entries {vals}")
    tr = vals[0] + vals[1] + vals[2] + vals[3]
    if abs(tr - 1.0) > TRACE_INPUT_TOL:
        raise TraceError(f"diagonal sums to {tr!r}, expected 1 within {TRACE_INPUT_TOL}")
    scaled = [v / tr for v in vals]
    # residual float error after division can leave |trace-1| ~ 1 ulp
    diag = scaled[:4]
    diag[0] += 1.0 - sum(diag)
    return XState(diag[0], diag[1], diag[2], diag[3], scaled[4], scaled[5])


def bloch_params(s: XState) -> BlochParams:
    """Bloch parameters (A, B, t1, t2, t3) of an X state."""
    return BlochParams(
        A=s.a - s.b + s.c - s.d,
        B=s.a + s.b - s.c - s.d,
        t1=2.0 * (s.delta + s.eps),
        t2=2.0 * (s.delta - s.eps),
        t3=s.a - s.b - s.c + s.d,
    )


def eigenvalues(s: XState) -> np.ndarray:
    """The four eigenvalues, from the 2x2 block closed forms."""
    r1 = math.hypot((s.a - s.d) / 2.0, s.eps)
    r2 = math.hypot((s.b - s.c) / 2.0, s.delta)
    m1 = (s.a + s.d) / 2.0
    m2 = (s.b + s.c) / 2.0
    return np.array([m1 - r1, m1 + r1, m2 - r2, m2 + r2])
