"""Tests of the benchmark's own generator, oracle, checks and spans.

Run from the repository root: python -m pytest bench
"""

import os
import sys
from dataclasses import asdict

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

import checks  # noqa: E402
import oracle  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from xdiscord import LogBase, SearchConfig  # noqa: E402
from xdiscord.cli import parse_state_file, run_report  # noqa: E402


def _by_name(states):
    return {s.name: s for s in states}


def _answer(d3, d2m, d2, mus=(0.4, 0.3, 0.3), euler=(0.1, 0.2, 0.3)):
    return {
        "delta3_min": d3, "delta2_min": d2m, "delta2": d2,
        "mu1": mus[0], "mu2": mus[1], "mu3": mus[2],
        "psi": euler[0], "theta": euler[1], "phi": euler[2],
    }


def _failures(states, results, check):
    failures, _ = checks.check_results(states, results, checks.Oracle())
    return [f for f in failures if f.check == check]


DEGENERATE = (0.5 - 5e-10, 0.5 - 5e-10, 1e-9)


def test_general_corpus_is_deterministic_per_seed():
    a, b = workloads.make_workload("general", 3), workloads.make_workload("general", 3)
    assert a == b
    other = workloads.make_workload("general", 4)
    seeded = [s.entries for s in a if s.name.startswith("seed")]
    assert seeded and seeded != [s.entries for s in other if s.name.startswith("seed")]
    assert [s for s in a if s.name.startswith("core")] == [
        s for s in other if s.name.startswith("core")
    ]


def test_general_corpus_pairs_partners_and_balances_strata():
    states = workloads.make_workload("general", 11)
    by_name = _by_name(states)
    kinds = []
    for s in states:
        p = by_name[s.swap_partner]
        assert p.swap_partner == s.name
        assert p.entries == workloads.swapped(s.entries)
        a, b, c, d, eps, delta = s.entries
        assert abs(a + b + c + d - 1.0) < 1e-12
        assert a * d >= eps * eps and b * c >= delta * delta
        t1, t2 = oracle.transverse(s.entries)
        assert abs(abs(t1) - abs(t2)) >= workloads.T_GAP_MIN
        kinds.append(workloads.stratum(s.entries))
    assert kinds.count("transverse") == kinds.count("z")


def test_reference_workload_is_a_permutation_of_fixed_states():
    names = sorted(s.name for s in workloads.make_workload("reference", 5))
    assert names == sorted(s.name for s in workloads.reference_states())


def test_state_file_round_trips_through_parse_state_file():
    states = workloads.make_workload("general", 2) + workloads.reference_states()
    parsed = dict(parse_state_file(workloads.state_file_text(states)))
    for s in states:
        xs = parsed[s.name]
        got = (xs.a, xs.b, xs.c, xs.d, xs.eps, xs.delta)
        assert got == pytest.approx(s.entries, abs=1e-15)


def test_oracle_closed_forms():
    bell = (0.5, 0.0, 0.0, 0.5, 0.5, 0.0)
    assert oracle.exact_projective_discord(bell) == pytest.approx(1.0, abs=1e-9)
    yaxis = (0.25, 0.25, 0.25, 0.25, 0.2, -0.2)
    assert oracle.exact_projective_discord(yaxis) == pytest.approx(0.0, abs=1e-9)
    assert oracle.axis_discord(yaxis, "zx") == pytest.approx(0.531004406, abs=1e-8)
    assert oracle.axis_discord(yaxis, "y") == pytest.approx(0.0, abs=1e-9)


def test_exact_projective_is_never_above_any_axis():
    for s in workloads.make_workload("general", 7):
        exact = oracle.exact_projective_discord(s.entries)
        assert exact <= oracle.axis_discord(s.entries, "xyz") + 1e-12


def test_sign_check_flags_a_plus1_defect_as_known():
    state = _by_name(workloads.reference_states())["a_plus1"]
    bad = _answer(-7.4e-9, 0.0, 0.0, mus=DEGENERATE)
    [f] = _failures([state], {state.name: bad}, "sign")
    assert f.known
    # the same value with a well-separated witness is not the documented defect
    [f] = _failures([state], {state.name: _answer(-7.4e-9, 0.0, 0.0)}, "sign")
    assert not f.known


def test_sign_check_flags_the_real_a_plus1_answer():
    state = _by_name(workloads.reference_states())["a_plus1"]
    xs = dict(parse_state_file(workloads.state_file_text([state])))[state.name]
    answer = asdict(run_report([(state.name, xs)], SearchConfig(), LogBase.BITS).results[0])
    assert answer["delta3_min"] < 0.0
    assert [f.check for f in _failures([state], {state.name: answer}, "sign")] == ["sign"]


def test_swap_check_flags_yaxis_delta2_as_known():
    refs = _by_name(workloads.reference_states())
    pair = [refs["yaxis"], refs["yaxis_swap"]]
    results = {
        "yaxis": _answer(0.0, 0.0, 0.5310044064107189, mus=DEGENERATE),
        "yaxis_swap": _answer(0.0, 0.0, 0.0, mus=DEGENERATE),
    }
    fails = _failures(pair, results, "swap")
    assert {f.state for f in fails} == {"yaxis", "yaxis_swap"}
    assert all(f.known for f in fails)
    # a disagreement in delta3_min is not explained by the axis set
    results["yaxis_swap"] = _answer(1e-3, 1e-3, 0.0, mus=DEGENERATE)
    assert not any(f.known for f in _failures(pair, results, "swap"))


def test_reference_check_takes_best_axis_delta2_and_flags_zx_as_known():
    refs = _by_name(workloads.reference_states())
    pair = [refs["yaxis"], refs["yaxis_swap"]]
    fixed = {name: _answer(0.0, 0.0, 0.0, mus=DEGENERATE) for name in ("yaxis", "yaxis_swap")}
    assert not _failures(pair, fixed, "reference")
    assert not _failures(pair, fixed, "swap")
    # delta2 over the z/x axes only: the missing y axis
    [f] = _failures([refs["yaxis"]], {"yaxis": _answer(0.0, 0.0, 0.5310044064107189)}, "reference")
    assert f.known and "delta2" in f.detail
    [f] = _failures([refs["yaxis"]], {"yaxis": _answer(0.0, 0.0, 0.3)}, "reference")
    assert not f.known


@pytest.mark.parametrize("mus", [
    DEGENERATE,
    # flat on another edge: mu1 + mu3 - mu2 = 5e-10, as returned for a general state
    (0.49997803375316396, 0.49999999949900004, 2.1966747835999723e-05),
])
def test_witness_check_flags_degenerate_rebuild_as_known(mus):
    state = _by_name(workloads.reference_states())["bell"]
    [f] = _failures([state], {state.name: _answer(1.0, 1.0, 1.0, mus=mus)}, "witness")
    assert f.known and "DegenerateError" in f.detail


def test_witness_check_compares_rebuilt_povm_with_dense_value():
    from xdiscord import EulerAngles, PovmWeights, build_povm3

    state = _by_name(workloads.reference_states())["rho3"]
    povm = build_povm3(PovmWeights(0.4, 0.3, 0.3), EulerAngles(0.1, 0.2, 0.3))
    dense = oracle.measured_discord(state.entries, povm.weights.as_array(), povm.dirs)
    assert not _failures([state], {state.name: _answer(dense, 1.0, 1.0)}, "witness")
    [f] = _failures([state], {state.name: _answer(dense + 1e-6, 1.0, 1.0)}, "witness")
    assert not f.known


def test_ordering_reference_and_finite_checks():
    state = _by_name(workloads.reference_states())["bell"]
    assert _failures([state], {state.name: _answer(1.0, 0.9, 1.0)}, "ordering")
    assert _failures([state], {state.name: _answer(1.0, 1.0, 1.1)}, "reference")
    [f] = _failures([state], {state.name: ValueError("boom")}, "finite")
    assert not f.known
    assert _failures([state], {state.name: _answer(float("nan"), 1.0, 1.0)}, "finite")


def test_repeat_check_flags_changed_answers():
    state = _by_name(workloads.reference_states())["bell"]
    first = {state.name: _answer(1.0, 1.0, 1.0)}
    assert not checks.check_repeat([state], dict(first), first)
    [f] = checks.check_repeat([state], {state.name: _answer(1.0 - 1e-15, 1.0, 1.0)}, first)
    assert f.check == "repeat"


def test_spans_nest_and_self_time_excludes_children():
    class Ns:
        @staticmethod
        def inner():
            return 1

        @staticmethod
        def outer():
            return Ns.inner() + 1

    original = Ns.inner
    tracer = tracing.Tracer()
    tracer.install(Ns, "inner", "inner")
    tracer.install(Ns, "outer", "outer")
    with tracer.root("root"):
        assert Ns.outer() == 2
    tracer.uninstall()
    assert Ns.inner is original
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["outer"].parent == by_name["root"].id
    assert by_name["inner"].parent == by_name["outer"].id
    outer = by_name["outer"]
    assert tracing.self_time(outer, [by_name["inner"]]) == pytest.approx(
        outer.duration - by_name["inner"].duration
    )


def test_covered_merges_overlapping_intervals():
    mk = lambda a, b: tracing.Span(0, "x", None, 0, a, b)  # noqa: E731
    assert tracing.covered([mk(0, 2), mk(1, 3), mk(5, 6)], 0, 10) == pytest.approx(4.0)
    assert tracing.covered([mk(0, 2), mk(1, 3)], 1.5, 2.5) == pytest.approx(1.0)
