"""Acceptance gate: the paper's reference gaps, nats values, headline
error bounds, witness weights and trivial anchors.

Each test carries a criterion(n) marker, as do the module tests that
evidence criteria 1, 6 and 7; conftest.py prints one pass/fail line per
criterion in the terminal summary.
"""

import itertools
import math
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import BELL_ENTRIES, BENCH_ENTRIES, CRITERIA, MIXED_ENTRIES
from oracles import random_unit_vector
from xdiscord.discord import (
    ali_candidate,
    conditional_entropy_projective,
    discord_given_conditional_entropy,
)
from xdiscord.entropy import LogBase, von_neumann_xstate
from xdiscord.optimizer import SearchConfig, minimize_povm3, minimize_projective
from xdiscord.qstate import xstate_from_entries

ROOT = Path(__file__).resolve().parent.parent
LN2 = math.log(2.0)
NAMES = ("rho1", "rho2", "rho3")

# bits tolerances of the three discord values, which the module tests
# marked criterion(1) hold in bits
VALUE_TOL = {"delta2": 1e-5, "delta2_min": 5e-5, "delta3_min": 1e-4}
NATS_TARGETS = {
    "delta3_min": (0.085264, 0.074772, 0.092001),
    "delta2_min": (0.086381, 0.074824, 0.092009),
    "delta2": (0.088428, 0.075396, 0.092016),
}
BITS_GAP_TARGETS = {
    "diff3": (-0.004565, -9.0030e-4, -2.1109e-5),
    "diff2": (-0.002952, -8.2542e-4, -9.6477e-6),
}
NATS_GAP_TARGETS = {
    "diff3": (-0.003164, -6.2400e-4, -1.4631e-5),
    "diff2": (-0.002046, -5.7214e-4, -6.6871e-6),
}
GAP_TOL = {"diff3": (2e-4, 1e-5, 5e-6), "diff2": (1e-4, 1e-5, 5e-6)}
WITNESS_TARGETS = {
    "rho1": (0.4209, 0.2938, 0.2853),
    "rho2": (0.4663, 0.2489, 0.2848),
    "rho3": (0.2748, 0.2853, 0.4349),
}
by_state = pytest.mark.parametrize("i", range(len(NAMES)), ids=NAMES)


def _compute(base):
    out = {}
    for name in NAMES:
        s = xstate_from_entries(*BENCH_ENTRIES[name])
        r3 = minimize_povm3(s, SearchConfig(), base)
        r2 = minimize_projective(s, SearchConfig(), base)
        d3 = discord_given_conditional_entropy(s, r3.best_value, None, base).value
        d2m = discord_given_conditional_entropy(s, r2.best_value, None, base).value
        d2 = ali_candidate(s, base).value
        out[name] = {
            "delta3_min": d3,
            "delta2_min": d2m,
            "delta2": d2,
            "diff3": d3 - d2,
            "diff2": d2m - d2,
            "weights": r3.best_weights.as_array(),
        }
    return out


@pytest.fixture(scope="module")
def pipeline_bits():
    t0 = time.perf_counter()
    results = _compute(LogBase.BITS)
    return results, time.perf_counter() - t0


@pytest.fixture(scope="module")
def pipeline_nats():
    return _compute(LogBase.NATS)


@pytest.mark.criterion(1)
def test_pipeline_runtime(pipeline_bits):
    assert pipeline_bits[1] <= 60.0


@pytest.mark.criterion(2)
@by_state
def test_reference_gaps_bits(pipeline_bits, i):
    got = pipeline_bits[0][NAMES[i]]
    for col, tols in GAP_TOL.items():
        assert abs(got[col] - BITS_GAP_TARGETS[col][i]) <= tols[i], col


@pytest.mark.criterion(3)
@by_state
def test_reference_nats(pipeline_nats, i):
    got = pipeline_nats[NAMES[i]]
    for col, targets in NATS_TARGETS.items():
        assert abs(got[col] - targets[i]) <= VALUE_TOL[col] * LN2, col
    for col, tols in GAP_TOL.items():
        assert abs(got[col] - NATS_GAP_TARGETS[col][i]) <= tols[i] * LN2, col


@pytest.mark.criterion(4)
def test_headline_error_bounds(pipeline_bits):
    results = pipeline_bits[0]
    gap1 = results["rho1"]["delta2"] - results["rho1"]["delta3_min"]
    gap2 = results["rho2"]["delta2"] - results["rho2"]["delta3_min"]
    assert gap1 >= 0.0044
    assert 0.0008 <= gap2 <= 0.0010


@pytest.mark.criterion(5)
@by_state
def test_witness_recovery(pipeline_bits, i):
    got = pipeline_bits[0][NAMES[i]]["weights"]
    target = WITNESS_TARGETS[NAMES[i]]
    # the objective is invariant under element permutation, so the
    # optimizer may return the reference triple in any order
    dist = min(
        max(abs(got[j] - target[k]) for k, j in enumerate(perm))
        for perm in itertools.permutations(range(3))
    )
    assert dist <= 0.02, np.round(got, 4)


@pytest.mark.criterion(8)
def test_maximally_mixed_discord_zero():
    mixed = xstate_from_entries(*MIXED_ENTRIES)
    for ce in (
        minimize_povm3(mixed, SearchConfig()).best_value,
        minimize_projective(mixed, SearchConfig()).best_value,
        ali_candidate(mixed, LogBase.BITS).conditional_entropy,
    ):
        assert abs(discord_given_conditional_entropy(mixed, ce, None, LogBase.BITS).value) <= 1e-6


@pytest.mark.criterion(8)
def test_bell_discord_one_bit():
    bell = xstate_from_entries(*BELL_ENTRIES)
    assert von_neumann_xstate(bell, LogBase.BITS) <= 1e-9
    # brute force: the projective conditional entropy is 0 everywhere
    rng = np.random.default_rng(5)
    brute = max(
        conditional_entropy_projective(bell, random_unit_vector(rng), LogBase.BITS)
        for _ in range(2000)
    )
    assert brute <= 1e-12
    ce = minimize_projective(bell, SearchConfig()).best_value
    d = discord_given_conditional_entropy(bell, ce, None, LogBase.BITS).value
    assert abs(d - 1.0) <= 1e-6


def test_every_criterion_has_a_marked_test():
    # a criterion whose last marker is dropped would lose its line
    # silently; the run only collects, so it skips assertion rewriting
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider",
         "--assert=plain"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    ).stdout
    counts = {int(n): int(k) for n, k in re.findall(r"^criterion (\d+): (\d+) collected", out, re.M)}
    assert counts.keys() == CRITERIA.keys(), out
    assert min(counts.values()) >= 1, counts
