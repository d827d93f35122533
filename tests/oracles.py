"""Oracles and samplers for cross-checking the package.

The dense oracles are built from scratch on 4x4 / 2x2 complex matrices
and numpy's eigensolver, deliberately sharing no code with the package;
so is kw_conditional_entropy, the exact minimum over all POVMs for
rank-2 states. dual_bound reads the package's G(z), whose use as a lower
bound the tests check against the dense oracle, and phi_audit runs on
the public path.
"""

import itertools
import math

import numpy as np

from xdiscord.discord import _plane_kernel, conditional_entropy_povm3
from xdiscord.entropy import LogBase
from xdiscord.optimizer import REFINE_TOL, SearchConfig, _solve_1d
from xdiscord.povm import TRIANGLE_MARGIN, EulerAngles, PovmWeights, build_povm3

I2 = np.eye(2, dtype=complex)
SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def dense_xmatrix(a, b, c, d, eps, delta):
    return np.array(
        [
            [a, 0.0, 0.0, eps],
            [0.0, b, delta, 0.0],
            [0.0, delta, c, 0.0],
            [eps, 0.0, 0.0, d],
        ],
        dtype=complex,
    )


def entropy_of_matrix(rho, base="bits"):
    lams = np.linalg.eigvalsh(rho)
    lams = np.clip(lams.real, 0.0, None)
    s = 0.0
    for lam in lams:
        if lam > 0.0:
            s -= lam * math.log(lam)
    return s / math.log(2.0) if base == "bits" else s


def partial_trace_b(rho4):
    r = rho4.reshape(2, 2, 2, 2)
    return np.einsum("abcb->ac", r)


def partial_trace_a(rho4):
    r = rho4.reshape(2, 2, 2, 2)
    return np.einsum("abac->bc", r)


def bloch_element(mu, m):
    return mu * (I2 + m[0] * SX + m[1] * SY + m[2] * SZ)


def povm_elements(p):
    """The 2x2 operators mu_k (I + m_k . sigma) of a povm.Povm3."""
    return [bloch_element(mu, m) for mu, m in zip(p.weights.as_array(), p.dirs)]


def ce_elements_oracle(rho4, elements, base="bits"):
    """Conditional entropy via explicit operator application.

    For each 2x2 element M acting on subsystem B: p = Tr[(I x M) rho],
    post-measurement state of A is Tr_B[(I x M) rho] / p.
    """
    total = 0.0
    for m_op in elements:
        big = np.kron(I2, m_op)
        sigma = big @ rho4
        p = float(np.trace(sigma).real)
        if p <= 1e-14:
            continue
        rho_a = partial_trace_b(sigma) / p
        total += p * entropy_of_matrix(rho_a, base)
    return total


def ce_povm_oracle(rho4, mus, dirs, base="bits"):
    elements = [bloch_element(mu, m) for mu, m in zip(mus, dirs)]
    return ce_elements_oracle(rho4, elements, base)


def ce_projective_oracle(rho4, n, base="bits"):
    up = bloch_element(0.5, n)
    dn = bloch_element(0.5, [-n[0], -n[1], -n[2]])
    return ce_elements_oracle(rho4, [up, dn], base)


def mutual_information_oracle(rho4, base="bits"):
    return (
        entropy_of_matrix(partial_trace_b(rho4), base)
        + entropy_of_matrix(partial_trace_a(rho4), base)
        - entropy_of_matrix(rho4, base)
    )


def random_xstate_entries(rng):
    """Random valid X-state entries: dirichlet diagonal, coherences
    drawn uniformly inside the block-positivity disks."""
    a, b, c, d = rng.dirichlet([1.0, 1.0, 1.0, 1.0])
    eps = rng.uniform(-1.0, 1.0) * math.sqrt(a * d)
    delta = rng.uniform(-1.0, 1.0) * math.sqrt(b * c)
    return a, b, c, d, eps, delta


RANK2_FAMILIES = ("outer_rank1_plus_c", "both_blocks_rank1", "b_c_zero")


def rank2_entries(rng, family):
    """Entries of a random X state of rank 2 from one of RANK2_FAMILIES."""
    if family == "outer_rank1_plus_c":  # b = delta = 0, ad = eps^2
        a, c, d = rng.dirichlet([1.0, 1.0, 1.0])
        return a, 0.0, c, d, rng.choice((-1.0, 1.0)) * math.sqrt(a * d), 0.0
    if family == "both_blocks_rank1":
        a, b, c, d = rng.dirichlet([1.0, 1.0, 1.0, 1.0])
        eps, delta = rng.choice((-1.0, 1.0), size=2) * np.sqrt((a * d, b * c))
        return a, b, c, d, eps, delta
    a = rng.uniform(0.0, 1.0)  # b = c = 0
    return a, 0.0, 0.0, 1.0 - a, rng.uniform(-1.0, 1.0) * math.sqrt(a * (1.0 - a)), 0.0


def random_unit_vector(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def sample_weights(rng):
    """Uniform draw from the open admissible weight region, by simplex
    rejection: with the sum fixed to 1 the triangle inequalities reduce
    to each mu_i < 1/2, and the margin keeps samples strictly interior."""
    cap = (1.0 - TRIANGLE_MARGIN) / 2.0
    while True:
        u = rng.uniform(0.0, 1.0, size=2)
        lo, hi = min(u), max(u)
        mus = (lo, hi - lo, 1.0 - hi)
        if max(mus) <= cap:
            return PovmWeights(*mus)


def _binary_entropy_bits(q):
    """Entropy in bits of {q, 1 - q}, q the smaller probability."""
    if q <= 0.0:
        return 0.0
    return -(q * math.log(q) + (1.0 - q) * math.log1p(-q)) / math.log(2.0)


def kw_conditional_entropy(rho4):
    """Minimum over all POVMs on B of the conditional entropy of A, in
    bits, for a state of rank at most 2.

    By Koashi and Winter (PRA 69, 022309 (2004)) it is E_F(rho_AC), C
    purifying AB; for rank 2, C is a qubit and Wootters (PRL 80, 2245
    (1998)) gives E_F from the concurrence. The purification
    sum_i sqrt(lam_i) |psi_i>_AB |i>_C leaves rho_AC = sum_b w_b w_b^dag,
    w_b its slice at B = b; the concurrence is s1 - s2 from the singular
    values of tau_ij = w_i^T (sy x sy) w_j, which, unlike the
    eigenvalues of rho rho~, need no square roots of tiny numbers.
    """
    lams, vecs = np.linalg.eigh(rho4)
    psi = (vecs[:, 2:] * np.sqrt(np.clip(lams[2:], 0.0, None))).reshape(2, 2, 2)
    w = psi.transpose(1, 0, 2).reshape(2, 4)  # rows w_b over (a, c)
    s1, s2 = np.linalg.svd(w @ np.kron(SY, SY) @ w.T, compute_uv=False)
    conc2 = min(s1 - s2, 1.0) ** 2
    return _binary_entropy_bits(conc2 / (2.0 * (1.0 + math.sqrt(1.0 - conc2))))


# half-width of the central difference that gives the dual slope when a
# witness's support is the one point z = 0
CENTRAL_STEP = 1e-4
# chords tried by dual_bound: the witness's, then simplex steps
DUAL_ROUNDS = 8
# dual_bound's scans: a first scan of another size than the solves', so
# that no point of theirs recurs in it and a solve left at its first
# scan's resolution shows as a gap
DUAL_CFG = SearchConfig(n_global_samples=1999)


def dual_bound(s, res, base=LogBase.BITS):
    """A lower bound on the conditional entropy of every POVM on B, from
    res, the minimize_povm3 result for s in base.

    G is discord._plane_kernel, the outcome term g(m) = (1 + A mz) h(E(m))
    on the plane of the solves, and g(m) >= G(mz). A POVM
    {mu_k (I + m_k . sigma)} has sum mu_k = 1 and sum mu_k m_k = 0, so
    its conditional entropy sum mu_k g(m_k) is at least
    sum mu_k (G(z_k) - lam z_k) >= L(lam) = min over z in [-1, 1] of
    G(z) - lam z, for every lam.

    The first lam is the chord slope of G through the support of res's
    witness on z, which its first two directions span: the pole and the
    mirror pair at -t, or the projective axis and its antipode at -nz
    (to the ~1e-9 of the needle triangle); a central difference if they
    meet. Each later lam is a simplex step of the linear program: the
    minimizer of G - lam z replaces the chord's end on its side of 0.
    Where the solve's objective is flat the witness's support is not
    sharp, and these steps close what the first chord leaves. The
    result is the largest L of DUAL_ROUNDS chords. Each minimum is one
    _solve_1d, exact to its scans' resolution: the bound is not an
    interval bound.
    """
    g = _plane_kernel(s, base)
    lo, hi = sorted(build_povm3(res.best_weights, res.best_euler).dirs[:2, 2])
    if hi - lo < 2.0 * CENTRAL_STEP:
        mid = 0.5 * (lo + hi)
        lo, hi = mid - CENTRAL_STEP, mid + CENTRAL_STEP
    best = -math.inf
    for _ in range(DUAL_ROUNDS):
        g_lo, g_hi = g(np.array([lo, hi]))
        lam = (g_hi - g_lo) / (hi - lo)
        z, value = _solve_1d(lambda z: g(z) - lam * z, -1.0, 1.0, DUAL_CFG)[:2]
        best = max(best, value)
        if z < 0.0:
            lo = z
        elif z > 0.0:
            hi = z
    return best


PHI_POINTS, ORIENT_POINTS = 16, 24


def compass_min(f, x, step):
    """Plain 2-D compass search from x: take the first of the four
    steps that lowers f, else halve the step, until it is REFINE_TOL."""
    fx = f(x)
    while step > REFINE_TOL:
        for dx, dy in ((step, 0.0), (-step, 0.0), (0.0, step), (0.0, -step)):
            trial = (x[0] + dx, x[1] + dy)
            ft = f(trial)
            if ft < fx:
                x, fx = trial, ft
                break
        else:
            step /= 2.0
    return fx


def phi_audit(s, w, base=LogBase.BITS):
    """Minimum conditional entropy at the weights w over the orientation
    (psi, theta), at each of PHI_POINTS values of phi: the best point of
    an ORIENT_POINTS x ORIENT_POINTS grid refined by compass_min. phi is
    redundant, and the values agree to rounding, for states symmetric
    under z-rotations (|t1| = |t2|)."""
    grid = np.linspace(0.0, 2.0 * math.pi, ORIENT_POINTS, endpoint=False)
    values = []
    for phi in np.linspace(0.0, 2.0 * math.pi, PHI_POINTS, endpoint=False):

        def f(x, phi=phi):
            return conditional_entropy_povm3(s, build_povm3(w, EulerAngles(*x, phi)), base)

        x0 = min(itertools.product(grid, grid), key=f)
        values.append(compass_min(f, x0, grid[1] / 2.0))
    return values
