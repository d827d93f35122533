"""Independent dense-matrix oracles for cross-checking closed forms.

Everything here is built from scratch on 4x4 / 2x2 complex matrices and
numpy's eigensolver, deliberately sharing no code with the package.
"""

import math

import numpy as np

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


def random_unit_vector(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)
