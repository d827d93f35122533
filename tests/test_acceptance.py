"""Acceptance gate: reference-value reproduction and property suites.

Each test covers one numbered criterion and emits a single pass/fail
line (echoed in the terminal summary).
"""

import itertools
import math
import time

import numpy as np
import pytest

from conftest import ACCEPTANCE_LINES, BENCH_ENTRIES
from oracles import (
    ce_povm_oracle,
    ce_projective_oracle,
    dense_xmatrix,
    dual_bound,
    entropy_of_matrix,
    phi_audit,
    povm_elements,
    random_unit_vector,
    random_xstate_entries,
    sample_weights,
)
from xdiscord.discord import (
    ali_candidate,
    conditional_entropy_povm3,
    conditional_entropy_projective,
    discord_given_conditional_entropy,
)
from xdiscord.entropy import LogBase, von_neumann_xstate
from xdiscord.optimizer import SearchConfig, minimize_povm3, minimize_projective
from xdiscord.povm import EulerAngles, build_povm3
from xdiscord.qstate import xstate_from_entries

LN2 = math.log(2.0)
NAMES = ("rho1", "rho2", "rho3")

BITS_TARGETS = {
    "delta2": (0.127575, 0.108773, 0.132751),
    "delta2_min": (0.124623, 0.107948, 0.132741),
    "delta3_min": (0.123010, 0.107873, 0.132730),
}
BITS_GAP_TARGETS = {
    "diff3": (-0.004565, -9.0030e-4, -2.1109e-5),
    "diff2": (-0.002952, -8.2542e-4, -9.6477e-6),
}
NATS_TARGETS = {
    "delta3_min": (0.085264, 0.074772, 0.092001),
    "delta2_min": (0.086381, 0.074824, 0.092009),
    "delta2": (0.088428, 0.075396, 0.092016),
}
NATS_GAP_TARGETS = {
    "diff3": (-0.003164, -6.2400e-4, -1.4631e-5),
    "diff2": (-0.002046, -5.7214e-4, -6.6871e-6),
}
DIFF3_TOL = (2e-4, 1e-5, 5e-6)
DIFF2_TOL = (1e-4, 1e-5, 5e-6)
WITNESS_TARGETS = {
    "rho1": (0.4209, 0.2938, 0.2853),
    "rho2": (0.4663, 0.2489, 0.2848),
    "rho3": (0.2748, 0.2853, 0.4349),
}


def _report(num, ok, detail):
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line)


def _compute(states, base):
    out = {}
    for name in NAMES:
        s = states[name]
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
            "weights": (
                r3.best_weights.mu1,
                r3.best_weights.mu2,
                r3.best_weights.mu3,
            ),
        }
    return out


@pytest.fixture(scope="module")
def states():
    return {name: xstate_from_entries(*e) for name, e in BENCH_ENTRIES.items()}


@pytest.fixture(scope="module")
def pipeline_bits(states):
    t0 = time.perf_counter()
    results = _compute(states, LogBase.BITS)
    return results, time.perf_counter() - t0


@pytest.fixture(scope="module")
def pipeline_nats(states):
    return _compute(states, LogBase.NATS)


def test_criterion_1_reference_bits(pipeline_bits):
    results, elapsed = pipeline_bits
    tols = {"delta2": 1e-5, "delta2_min": 5e-5, "delta3_min": 1e-4}
    errs = []
    for col, targets in BITS_TARGETS.items():
        for name, target in zip(NAMES, targets):
            got = results[name][col]
            if abs(got - target) > tols[col]:
                errs.append(f"{name}.{col}={got:.6f} vs {target}")
    if elapsed > 60.0:
        errs.append(f"runtime {elapsed:.1f}s > 60s")
    ok = not errs
    _report(1, ok, f"bits reference values within tolerances, runtime {elapsed:.1f}s"
            if ok else "; ".join(errs))
    assert ok, errs


def test_criterion_2_reference_gaps_bits(pipeline_bits):
    results, _ = pipeline_bits
    errs = []
    for col, tols in (("diff3", DIFF3_TOL), ("diff2", DIFF2_TOL)):
        for name, target, tol in zip(NAMES, BITS_GAP_TARGETS[col], tols):
            got = results[name][col]
            if abs(got - target) > tol:
                errs.append(f"{name}.{col}={got:.3e} vs {target:.3e} (tol {tol:.0e})")
    ok = not errs
    _report(2, ok, "bits reference gaps within tolerances" if ok else "; ".join(errs))
    assert ok, errs


def test_criterion_3_reference_nats(pipeline_nats):
    results = pipeline_nats
    tols = {"delta2": 1e-5 * LN2, "delta2_min": 5e-5 * LN2, "delta3_min": 1e-4 * LN2}
    errs = []
    for col, targets in NATS_TARGETS.items():
        for name, target in zip(NAMES, targets):
            got = results[name][col]
            if abs(got - target) > tols[col]:
                errs.append(f"{name}.{col}={got:.6f} vs {target}")
    for col, base_tols in (("diff3", DIFF3_TOL), ("diff2", DIFF2_TOL)):
        for name, target, tol in zip(NAMES, NATS_GAP_TARGETS[col], base_tols):
            got = results[name][col]
            if abs(got - target) > tol * LN2:
                errs.append(f"{name}.{col}={got:.3e} vs {target:.3e}")
    ok = not errs
    _report(3, ok, "nats reference values and gaps within scaled tolerances" if ok else "; ".join(errs))
    assert ok, errs


def test_criterion_4_headline_error_bounds(pipeline_bits):
    results, _ = pipeline_bits
    gap1 = results["rho1"]["delta2"] - results["rho1"]["delta3_min"]
    gap2 = results["rho2"]["delta2"] - results["rho2"]["delta3_min"]
    errs = []
    if not gap1 >= 0.0044:
        errs.append(f"rho1 gap {gap1:.6f} < 0.0044")
    if not 0.0008 <= gap2 <= 0.0010:
        errs.append(f"rho2 gap {gap2:.6f} outside [0.0008, 0.0010]")
    ok = not errs
    _report(4, ok, f"worst-case gaps rho1={gap1:.6f}, rho2={gap2:.6f}"
            if ok else "; ".join(errs))
    assert ok, errs


def test_criterion_5_witness_recovery(pipeline_bits):
    results, _ = pipeline_bits
    errs = []
    for name in NAMES:
        got = results[name]["weights"]
        target = WITNESS_TARGETS[name]
        # the objective is invariant under element permutation, so the
        # optimizer may return the reference triple in any order
        dist = min(
            max(abs(got[i] - target[k]) for k, i in enumerate(perm))
            for perm in itertools.permutations(range(3))
        )
        if dist > 0.02:
            errs.append(f"{name} weights {np.round(got, 4)} vs {target} (L_inf {dist:.3f})")
    ok = not errs
    _report(5, ok, "witness weights within 0.02 of reference triples (up to permutation)"
            if ok else "; ".join(errs))
    assert ok, errs


def test_criterion_6_phi_invariance(states):
    errs = []
    spreads = {}
    for name in NAMES:
        s = states[name]
        values = phi_audit(s, minimize_povm3(s, SearchConfig()).best_weights)
        spreads[name] = max(values) - min(values)
        if spreads[name] > 1e-6:
            errs.append(f"{name} spread {spreads[name]:.2e} > 1e-6")
    ok = not errs
    detail = ", ".join(f"{n}={spreads[n]:.1e}" for n in NAMES)
    _report(6, ok, f"phi-audit spreads {detail}" if ok else "; ".join(errs))
    assert ok, errs


def test_criterion_7_property_suites(states, pipeline_bits):
    results, _ = pipeline_bits
    errs = []
    rng = np.random.default_rng(777)

    # POVM completeness and element positivity on 1e4 draws
    for _ in range(10_000):
        w = sample_weights(rng)
        p = build_povm3(w, EulerAngles(*rng.uniform(0.0, 2.0 * math.pi, size=3)))
        if np.linalg.norm(w.as_array() @ p.dirs) > 1e-10:
            errs.append("completeness violated")
            break
        lams = np.linalg.eigvalsh(np.stack(povm_elements(p)))
        if lams.min() < -1e-12:
            errs.append("element positivity violated")
            break

    # closed-form conditional entropy vs dense partial-trace oracle
    for k in range(1000):
        entries = random_xstate_entries(rng)
        s = xstate_from_entries(*entries)
        rho4 = dense_xmatrix(*entries)
        if k % 3 == 0:
            n = random_unit_vector(rng)
            ours = conditional_entropy_projective(s, n, LogBase.BITS)
            dense = ce_projective_oracle(rho4, n)
        else:
            w = sample_weights(rng)
            p = build_povm3(w, EulerAngles(*rng.uniform(0.0, 2.0 * math.pi, size=3)))
            ours = conditional_entropy_povm3(s, p, LogBase.BITS)
            dense = ce_povm_oracle(rho4, w.as_array(), p.dirs)
        if abs(ours - dense) > 1e-10:
            errs.append(f"oracle mismatch {abs(ours - dense):.2e}")
            break

    # block-eigenvalue entropy vs dense eigensolver
    for _ in range(10_000):
        entries = random_xstate_entries(rng)
        s = xstate_from_entries(*entries)
        if abs(
            von_neumann_xstate(s, LogBase.BITS) - entropy_of_matrix(dense_xmatrix(*entries))
        ) > 1e-10:
            errs.append("entropy oracle mismatch")
            break

    # dominance chain on the benchmarks
    for name in NAMES:
        r = results[name]
        if not (r["delta3_min"] <= r["delta2_min"] + 1e-9
                and r["delta2_min"] <= r["delta2"] + 1e-9):
            errs.append(f"{name} dominance chain violated")

    # determinism
    s = states["rho1"]
    a = minimize_povm3(s, SearchConfig())
    b = minimize_povm3(s, SearchConfig())
    if not (a.best_value == b.best_value and a.best_weights == b.best_weights
            and a.best_euler == b.best_euler and a.n_evals == b.n_evals):
        errs.append("repeat run not bit-identical")

    # the dual bound of each witness certifies the 1-D solve against
    # every POVM
    for name in NAMES:
        res = minimize_povm3(states[name], SearchConfig())
        gap = res.best_value - dual_bound(states[name], res)
        if abs(gap) > 1e-12:
            errs.append(f"{name} certificate gap {gap:.2e} beyond 1e-12")

    ok = not errs
    _report(7, ok, "property suites (completeness, oracles, dominance, determinism, "
            "certificate)" if ok else "; ".join(errs))
    assert ok, errs


def test_criterion_8_trivial_anchors():
    errs = []
    mixed = xstate_from_entries(0.25, 0.25, 0.25, 0.25, 0.0, 0.0)
    for strategy in ("povm3", "projective", "axes"):
        if strategy == "povm3":
            ce = minimize_povm3(mixed, SearchConfig()).best_value
        elif strategy == "projective":
            ce = minimize_projective(mixed, SearchConfig()).best_value
        else:
            ce = ali_candidate(mixed, LogBase.BITS).conditional_entropy
        d = discord_given_conditional_entropy(mixed, ce, None, LogBase.BITS).value
        if abs(d) > 1e-6:
            errs.append(f"mixed {strategy} discord {d:.2e}")

    bell = xstate_from_entries(0.5, 0.0, 0.0, 0.5, 0.5, 0.0)
    rng = np.random.default_rng(5)
    brute = max(
        conditional_entropy_projective(bell, random_unit_vector(rng), LogBase.BITS)
        for _ in range(2000)
    )
    if brute > 1e-9:
        errs.append(f"bell brute-force max CE {brute:.2e} not 0")
    ce_bell = minimize_projective(bell, SearchConfig()).best_value
    d_bell = discord_given_conditional_entropy(bell, ce_bell, None, LogBase.BITS).value
    if abs(d_bell - 1.0) > 1e-6:
        errs.append(f"bell discord {d_bell:.8f} != 1")
    if von_neumann_xstate(bell, LogBase.BITS) > 1e-9:
        errs.append("bell state not pure")

    ok = not errs
    _report(8, ok, "maximally mixed discord 0, Bell discord 1 bit" if ok else "; ".join(errs))
    assert ok, errs
