import math

import numpy as np
import pytest

from conftest import BELL_ENTRIES
from oracles import (
    RANK2_FAMILIES,
    ce_povm_oracle,
    dense_xmatrix,
    dual_bound,
    kw_conditional_entropy,
    random_xstate_entries,
    rank2_entries,
    sample_weights,
)
from xdiscord.optimizer import SearchConfig, minimize_povm3
from xdiscord.povm import EulerAngles, build_povm3
from xdiscord.qstate import xstate_from_entries

CFG = SearchConfig()


def random_povm(rng, k):
    """Weights and unit directions of a random k-outcome qubit POVM: a
    random mixture of antipodal pairs and, for odd k, one random
    3-element POVM."""
    parts = []
    if k % 2:
        p = build_povm3(sample_weights(rng), EulerAngles(*rng.uniform(0.0, 2.0 * math.pi, 3)))
        parts.append((p.weights.as_array(), p.dirs))
    for _ in range((k - 3 * (k % 2)) // 2):
        m = rng.normal(size=3)
        m /= np.linalg.norm(m)
        parts.append((np.array([0.5, 0.5]), np.array([m, -m])))
    mix = rng.dirichlet(np.ones(len(parts)))
    mus = np.concatenate([w * part_mus for w, (part_mus, _) in zip(mix, parts)])
    dirs = np.concatenate([part_dirs for _, part_dirs in parts])
    assert len(mus) == k
    assert abs(mus.sum() - 1.0) <= 1e-12
    assert np.abs(mus @ dirs).max() <= 1e-12
    return mus, dirs


def random_pure_state(rng):
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    v /= np.linalg.norm(v)
    return np.outer(v, v.conj())


def random_unitary(rng):
    q, r = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestSampleWeights:
    def test_deterministic_for_fixed_seed(self):
        w1 = sample_weights(np.random.default_rng(424242))
        w2 = sample_weights(np.random.default_rng(424242))
        assert (w1.mu1, w1.mu2, w1.mu3) == (w2.mu1, w2.mu2, w2.mu3)

    def test_large_sample_constraint_audit(self, rng):
        for _ in range(100_000):
            w = sample_weights(rng)
            mus = (w.mu1, w.mu2, w.mu3)
            assert abs(sum(mus) - 1.0) <= 1e-12
            for i in range(3):
                j, k = (i + 1) % 3, (i + 2) % 3
                assert mus[j] + mus[k] - mus[i] >= 1e-9
                assert mus[i] - abs(mus[j] - mus[k]) >= 1e-9


class TestDualBound:
    """dual_bound lies below the conditional entropy of every POVM, with
    any number of outcomes, and below the exact minimum on rank-2 states."""

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_below_random_povms(self, rng, k):
        for _ in range(10):
            entries = random_xstate_entries(rng)
            s = xstate_from_entries(*entries)
            bound = dual_bound(s, minimize_povm3(s, CFG))
            rho4 = dense_xmatrix(*entries)
            for _ in range(20):
                assert bound <= ce_povm_oracle(rho4, *random_povm(rng, k)) + 1e-12

    def test_below_rank2_exact_minimum(self):
        rng = np.random.default_rng(17)
        for family in RANK2_FAMILIES:
            for _ in range(10):
                entries = rank2_entries(rng, family)
                s = xstate_from_entries(*entries)
                exact = kw_conditional_entropy(dense_xmatrix(*entries))
                assert dual_bound(s, minimize_povm3(s, CFG)) <= exact + 1e-12


class TestKwConditionalEntropy:
    """Checks of the Koashi-Winter oracle that share nothing with the
    package's solves."""

    @pytest.mark.parametrize("kind", ["bell", "product", "random"])
    def test_pure_states_zero(self, rng, kind):
        # measuring B on a pure state leaves A pure
        if kind == "bell":
            rho4 = dense_xmatrix(*BELL_ENTRIES)
        elif kind == "product":
            a, b = (random_pure_state(rng)[:2, :2] for _ in range(2))
            rho4 = np.kron(a / np.trace(a), b / np.trace(b))
        else:
            rho4 = random_pure_state(rng)
        assert abs(kw_conditional_entropy(rho4)) <= 1e-12

    def test_two_bell_mixtures_zero(self, rng):
        # any two Bell states share one Pauli correlation c_i = +-1, so
        # measuring B along i leaves A pure
        s = 1.0 / math.sqrt(2.0)
        bells = [np.array(v) * s for v in ((1, 0, 0, 1), (1, 0, 0, -1), (0, 1, 1, 0), (0, 1, -1, 0))]
        for i in range(4):
            for j in range(i + 1, 4):
                p = rng.uniform(0.0, 1.0)
                rho4 = p * np.outer(bells[i], bells[i]) + (1.0 - p) * np.outer(bells[j], bells[j])
                assert abs(kw_conditional_entropy(rho4.astype(complex))) <= 1e-12

    @pytest.mark.parametrize("family", RANK2_FAMILIES)
    def test_below_random_povms(self, rng, family):
        for _ in range(20):
            rho4 = dense_xmatrix(*rank2_entries(rng, family))
            exact = kw_conditional_entropy(rho4)
            assert exact >= -1e-12
            for k in (2, 3, 4, 5):
                assert exact <= ce_povm_oracle(rho4, *random_povm(rng, k)) + 1e-12

    def test_invariant_under_local_unitaries(self, rng):
        # a general rank-2 state, not an X state: a unitary on A keeps
        # each entropy, one on B maps the set of POVMs onto itself
        for _ in range(50):
            p = rng.uniform(0.0, 1.0)
            rho4 = p * random_pure_state(rng) + (1.0 - p) * random_pure_state(rng)
            u = np.kron(random_unitary(rng), random_unitary(rng))
            turned = u @ rho4 @ u.conj().T
            assert abs(kw_conditional_entropy(turned) - kw_conditional_entropy(rho4)) <= 1e-12
