"""Dense 4x4 reference values for X states, independent of xdiscord.

Entropies come from numpy's eigensolver on explicit density matrices;
a conditional entropy applies each measurement element to subsystem B
and traces B out. Nothing here imports the package under test, so its
answers can check the package's closed forms.

All values are in bits. `entries` is the tuple (a, b, c, d, eps, delta).
"""

from __future__ import annotations

import math

import numpy as np

I2 = np.eye(2, dtype=complex)
PAULI = np.array(
    [[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=complex
)

# points of the coarse scan over the polar angle of the projective axis
SCAN_POINTS = 2001
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def transverse(entries) -> tuple[float, float]:
    """Transverse correlations (t1, t2) = 2 (delta + eps, delta - eps)."""
    eps, delta = entries[4], entries[5]
    return 2.0 * (delta + eps), 2.0 * (delta - eps)


def dense_state(entries) -> np.ndarray:
    a, b, c, d, eps, delta = entries
    return np.array(
        [[a, 0, 0, eps], [0, b, delta, 0], [0, delta, c, 0], [eps, 0, 0, d]],
        dtype=complex,
    )


def entropy_bits(rho: np.ndarray) -> np.ndarray:
    """Von Neumann entropy of one matrix or of a stack of matrices."""
    lams = np.clip(np.linalg.eigvalsh(rho), 0.0, None)
    safe = np.where(lams > 0.0, lams, 1.0)
    return -(lams * np.log2(safe)).sum(axis=-1)


def partial_trace_b(rho4: np.ndarray) -> np.ndarray:
    return np.einsum("...abcb->...ac", rho4.reshape(rho4.shape[:-2] + (2, 2, 2, 2)))


def partial_trace_a(rho4: np.ndarray) -> np.ndarray:
    return np.einsum("...abac->...bc", rho4.reshape(rho4.shape[:-2] + (2, 2, 2, 2)))


def elements(weights, dirs) -> np.ndarray:
    """Stack of rank-1 elements mu (I + m . sigma) acting on B."""
    w = np.asarray(weights, dtype=float)
    m = np.asarray(dirs, dtype=float)
    return w[..., None, None] * (I2 + np.einsum("...k,kij->...ij", m, PAULI))


def conditional_entropy(rho4: np.ndarray, elems: np.ndarray) -> np.ndarray:
    """sum_k p_k S(rho_A|k) over the last element axis of elems (..., K, 2, 2)."""
    lifted = np.einsum("ij,...kl->...ikjl", I2, elems).reshape(elems.shape[:-2] + (4, 4))
    sigma = lifted @ rho4
    probs = np.trace(sigma, axis1=-2, axis2=-1).real
    live = probs > 1e-14
    rho_a = partial_trace_b(sigma) / np.where(live, probs, 1.0)[..., None, None]
    return np.where(live, probs * entropy_bits(rho_a), 0.0).sum(axis=-1)


def _discord_offset(rho4: np.ndarray) -> float:
    """S(rho_B) - S(rho_AB): discord is this plus the conditional entropy."""
    return float(entropy_bits(partial_trace_a(rho4)) - entropy_bits(rho4))


def measured_discord(entries, weights, dirs) -> float:
    """Discord left by one measurement of B with the given elements."""
    rho4 = dense_state(entries)
    ce = conditional_entropy(rho4, elements(weights, dirs))
    return _discord_offset(rho4) + float(ce)


def _projective_dirs(nz: np.ndarray, transverse_axis: int) -> np.ndarray:
    """Antipodal direction pairs in the plane of z and one transverse axis."""
    n = np.zeros(nz.shape + (2, 3))
    st = np.sqrt(np.clip(1.0 - nz * nz, 0.0, None))
    n[..., 0, transverse_axis] = st
    n[..., 0, 2] = nz
    n[..., 1, :] = -n[..., 0, :]
    return n


def axis_discord(entries, axes: str) -> float:
    """Discord from the best projective measurement along the named axes."""
    rho4 = dense_state(entries)
    unit = {"x": (1.0, 0.0, 0.0), "y": (0.0, 1.0, 0.0), "z": (0.0, 0.0, 1.0)}
    dirs = np.array([[unit[k], [-v for v in unit[k]]] for k in axes])
    ces = conditional_entropy(rho4, elements(np.full(dirs.shape[:2], 0.5), dirs))
    return _discord_offset(rho4) + float(ces.min())


def exact_projective_discord(entries) -> float:
    """Discord from the best projective measurement on the whole sphere.

    E(m) depends on mx and my only through t1^2 mx^2 + t2^2 my^2 and the
    entropy of a Bloch length falls as the length grows, so an optimal
    axis lies in the plane of z and the transverse axis with the larger
    |t|. That leaves one polar angle: a dense scan over nz in [0, 1],
    then golden-section refinement around the best scan point.
    """
    t1, t2 = transverse(entries)
    axis = 0 if abs(t1) >= abs(t2) else 1
    rho4 = dense_state(entries)

    def ce(nz):
        dirs = _projective_dirs(np.asarray(nz, dtype=float), axis)
        return conditional_entropy(rho4, elements(np.full(dirs.shape[:-1], 0.5), dirs))

    grid = np.linspace(0.0, 1.0, SCAN_POINTS)
    vals = ce(grid)
    i = int(np.argmin(vals))
    lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, SCAN_POINTS - 1)]
    best = float(vals[i])
    x1, x2 = hi - GOLDEN * (hi - lo), lo + GOLDEN * (hi - lo)
    f1, f2 = float(ce(x1)), float(ce(x2))
    while hi - lo > 1e-12:
        if f1 < f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - GOLDEN * (hi - lo)
            f1 = float(ce(x1))
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + GOLDEN * (hi - lo)
            f2 = float(ce(x2))
    best = min(best, f1, f2)
    return _discord_offset(rho4) + best

