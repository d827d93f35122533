import csv
import io
import json
import math
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import BENCH_ENTRIES, MIXED_ENTRIES, edge_xstates, positive_xstates
from oracles import ce_povm_oracle, dense_xmatrix, random_xstate_entries
from xdiscord.cli import (
    CSV_COLUMNS,
    DiscordReport,
    load_benchmarks,
    main,
    parse_state_file,
    render_csv,
    render_json,
    render_table,
    run_report,
)
from xdiscord import cli, discord, errors, optimizer
from xdiscord.discord import (
    ali_candidate,
    conditional_entropy_plane,
    discord_given_conditional_entropy,
)
from xdiscord.entropy import LogBase
from xdiscord.errors import ParseError
from xdiscord.optimizer import CERT_TOL, SearchConfig, minimize_povm3, minimize_projective
from xdiscord.povm import EulerAngles, PovmWeights, build_povm3
from xdiscord.qstate import xstate_from_entries

QUICK = SearchConfig(n_global_samples=501)

GOOD_RECORD = (
    '[{"name":"rho1","a":"0.027180","b":"0.000224","c":"0.027327",'
    '"d":"0.945269","eps":"0.141651","delta":"0"}]'
)


def mixed_report():
    states = [("mixed", xstate_from_entries(*MIXED_ENTRIES))]
    return run_report(states, QUICK, LogBase.BITS)


class TestParseStateFile:
    def test_single_record(self):
        states = parse_state_file(GOOD_RECORD)
        assert len(states) == 1
        name, s = states[0]
        assert name == "rho1"
        assert_allclose(s.eps, 0.141651, atol=1e-12)

    def test_bundled_benchmarks_match_reference_entries(self):
        states = dict(load_benchmarks())
        assert set(states) == {"rho1", "rho2", "rho3"}
        for name, entries in BENCH_ENTRIES.items():
            s = states[name]
            got = (s.a, s.b, s.c, s.d, s.eps, s.delta)
            assert_allclose(got, entries, atol=1e-12)

    def test_empty_list(self):
        assert parse_state_file("[]") == []

    def test_bad_trace_names_record(self):
        bad = '[{"name":"bad","a":"0.5","b":"0.2","c":"0.1","d":"0.1","eps":"0","delta":"0"}]'
        with pytest.raises(ParseError, match="bad"):
            parse_state_file(bad)

    def test_malformed_json_reports_line(self):
        with pytest.raises(ParseError, match="line"):
            parse_state_file('[{"name": }]')

    def test_duplicate_names_rejected(self):
        text = GOOD_RECORD[:-1] + "," + GOOD_RECORD[1:]
        with pytest.raises(ParseError, match="duplicate"):
            parse_state_file(text)

    def test_missing_field_rejected(self):
        with pytest.raises(ParseError, match="delta"):
            parse_state_file('[{"name":"x","a":"1","b":"0","c":"0","d":"0","eps":"0"}]')

    def test_bad_number_rejected(self):
        bad = '[{"name":"x","a":"one","b":"0","c":"0","d":"0","eps":"0","delta":"0"}]'
        with pytest.raises(ParseError, match="'a'"):
            parse_state_file(bad)

    @pytest.mark.parametrize(
        "fld, value",
        [
            ("a", True),  # bool is an int subclass: float(True) == 1.0
            ("d", False),
            ("a", "0.2_5"),  # Python-only digit grouping
            ("a", " 0.25"),
            ("a", "\uff10.25"),  # a fullwidth digit zero
        ],
    )
    def test_non_decimal_entry_rejected(self, fld, value):
        # read by float(), each record would be a valid state
        rec = {"name": "x", "a": 0.25, "b": 0.25, "c": 0.25, "d": 0.25, "eps": 0, "delta": 0}
        if isinstance(value, bool):
            rec.update(a=1, b=0, c=0, d=0)
        rec[fld] = value
        with pytest.raises(ParseError, match=f"record 'x'.*'{fld}'"):
            parse_state_file(json.dumps([rec]))

    def test_huge_integer_rejected(self):
        # float() of this int overflows; as a float it is inf, not a state
        text = '[{"name":"x","a":1' + "0" * 400 + ',"b":0,"c":0,"d":0,"eps":0,"delta":0}]'
        with pytest.raises(ParseError, match="record 'x'"):
            parse_state_file(text)

    def test_plain_decimals_and_numbers_accepted(self):
        text = ('[{"name":"x","a":"2.5e-1","b":".25","c":0.25,"d":"+0.25",'
                '"eps":"-0.0","delta":0}]')
        [(_, s)] = parse_state_file(text)
        assert (s.a, s.b, s.c, s.d, s.eps, s.delta) == (0.25, 0.25, 0.25, 0.25, 0.0, 0.0)

    def test_non_array_rejected(self):
        with pytest.raises(ParseError, match="array"):
            parse_state_file('{"name":"x"}')


class TestRunReport:
    def test_diffs_recomputed_from_values(self):
        rep = mixed_report()
        for r in rep.results:
            assert abs(r.diff3 - (r.delta3_min - r.delta2)) <= 1e-12
            assert abs(r.diff2 - (r.delta2_min - r.delta2)) <= 1e-12

    def test_results_in_input_order(self):
        states = [
            ("b", xstate_from_entries(*MIXED_ENTRIES)),
            ("a", xstate_from_entries(*MIXED_ENTRIES)),
        ]
        rep = run_report(states, QUICK, LogBase.BITS)
        assert [r.name for r in rep.results] == ["b", "a"]

    def test_nats_is_bits_times_ln2(self):
        # one solve in bits: the witness columns are the same in both
        # bases, and each discord value or gap is the bits one times ln 2
        rng = np.random.default_rng(43)
        states = [(name, xstate_from_entries(*e)) for name, e in BENCH_ENTRIES.items()]
        states += [(f"r{i}", xstate_from_entries(*random_xstate_entries(rng))) for i in range(8)]
        bits = run_report(states, QUICK, LogBase.BITS).results
        nats = run_report(states, QUICK, LogBase.NATS).results
        values = ("delta3_min", "delta2_min", "delta2", "diff3", "diff2")
        for rb, rn in zip(bits, nats):
            for name in CSV_COLUMNS[:-1]:
                b, n = getattr(rb, name), getattr(rn, name)
                if name in values:
                    assert abs(n - b * math.log(2.0)) <= math.ulp(n), (rb.name, name)
                else:
                    assert n == b, (rb.name, name)

    def test_yaxis_pair_has_zero_axis_discord(self):
        # t1 = 0, t2 = -0.8 and its eps-flipped partner t1 = 0.8, t2 = 0:
        # the best axis is y, then x, and both states are classical on it
        states = [
            ("yaxis", xstate_from_entries(0.25, 0.25, 0.25, 0.25, 0.2, -0.2)),
            ("yaxis_swap", xstate_from_entries(0.25, 0.25, 0.25, 0.25, 0.2, 0.2)),
        ]
        y, swap = run_report(states, QUICK, LogBase.BITS).results
        for r in (y, swap):
            assert abs(r.delta2) <= 1e-12
            assert abs(r.delta2_min) <= 1e-12
        assert (y.delta3_min, y.delta2_min, y.delta2) == (
            swap.delta3_min, swap.delta2_min, swap.delta2
        )

    def test_certified_state_assembled_once(self, monkeypatch):
        # delta2 comes from the projective first scan and S(rho_B) -
        # S(rho_AB) is taken once: on a certified axis the plane kernel
        # runs once per state, the von Neumann entropy once
        s = xstate_from_entries(*random_xstate_entries(np.random.default_rng(7)))
        r2 = minimize_projective(s)
        assert r2.lower_bound >= r2.best_value - CERT_TOL
        calls = []

        def counted(name):
            fn = getattr(discord, name)

            def call(*args):
                calls.append(name)
                return fn(*args)

            monkeypatch.setattr(discord, name, call)

        counted("_outcome_term")
        counted("von_neumann_xstate")
        run_report([("s", s)], SearchConfig(), LogBase.BITS)
        assert sorted(calls) == ["_outcome_term", "von_neumann_xstate"]

    def test_projective_solved_once_per_state(self, monkeypatch):
        calls = []
        solve = optimizer.minimize_projective

        def counted(*args, **kwargs):
            calls.append(args[0])
            return solve(*args, **kwargs)

        monkeypatch.setattr(cli, "minimize_projective", counted)
        monkeypatch.setattr(optimizer, "minimize_projective", counted)
        states = [(name, xstate_from_entries(*e)) for name, e in BENCH_ENTRIES.items()]
        run_report(states, QUICK, LogBase.BITS)
        assert sorted(map(id, calls)) == sorted(id(s) for _, s in states)


class TestRenderers:
    def test_table_includes_base_and_budget(self):
        rep = mixed_report()
        text = render_table(rep)
        assert "base=bits" in text
        assert "samples=501" in text
        assert "mixed" in text

    def test_csv_columns_exact(self):
        rep = mixed_report()
        rows = list(csv.reader(io.StringIO(render_csv(rep))))
        assert rows[0] == list(CSV_COLUMNS)
        assert len(rows) == 1 + len(rep.results)
        record = dict(zip(rows[0], rows[1]))
        assert record["name"] == "mixed"
        assert record["base"] == "bits"
        assert float(record["mu1"]) > 0.0

    def test_json_round_trip_exact(self):
        rep = mixed_report()
        payload = json.loads(render_json(rep))
        assert payload["results"] == [asdict(r) for r in rep.results]

    def test_csv_floats_round_trip(self):
        rep = mixed_report()
        rows = list(csv.reader(io.StringIO(render_csv(rep))))
        record = dict(zip(rows[0], rows[1]))
        assert float(record["delta3_min"]) == rep.results[0].delta3_min


class TestMain:
    def test_validate_ok(self, tmp_path, capsys):
        f = tmp_path / "states.json"
        f.write_text(GOOD_RECORD)
        assert main(["validate", "--states", str(f)]) == 0
        out = capsys.readouterr().out
        assert "rho1: ok" in out

    def test_validate_bad_state_fails(self, tmp_path, capsys):
        f = tmp_path / "states.json"
        f.write_text(
            '[{"name":"bad","a":"0.5","b":"0","c":"0","d":"0.5","eps":"0.6","delta":"0"}]'
        )
        assert main(["validate", "--states", str(f)]) == 1
        assert "bad" in capsys.readouterr().err

    def test_validate_missing_file_fails(self, tmp_path, capsys):
        assert main(["validate", "--states", str(tmp_path / "nope.json")]) == 1
        assert "error" in capsys.readouterr().err

    def test_run_csv_on_file(self, tmp_path, capsys):
        f = tmp_path / "states.json"
        f.write_text('[{"name":"mix","a":"0.25","b":"0.25","c":"0.25","d":"0.25",'
                     '"eps":"0","delta":"0"}]')
        code = main(
            ["run", "--states", str(f), "--samples", "2000", "--format", "csv"]
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert rows[0] == list(CSV_COLUMNS)
        assert rows[1][0] == "mix"

    def test_run_empty_file_succeeds(self, tmp_path, capsys):
        f = tmp_path / "states.json"
        f.write_text("[]")
        assert main(["run", "--states", str(f), "--format", "csv"]) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert rows == [list(CSV_COLUMNS)]

    def test_run_scan_too_small_fails(self, capsys):
        # a 3-point scan cannot narrow its bracket
        assert main(["run", "--benchmarks", "--samples", "3"]) == 1
        assert "counts too small" in capsys.readouterr().err

    def test_run_name_in_both_sources_fails(self, tmp_path, capsys):
        f = tmp_path / "states.json"
        f.write_text(GOOD_RECORD)  # a state named rho1
        assert main(["run", "--benchmarks", "--states", str(f)]) == 1
        captured = capsys.readouterr()
        assert "'rho1'" in captured.err
        assert captured.out == ""

    def test_run_without_sources_errors(self, capsys):
        with pytest.raises(SystemExit):
            main(["run"])

    def test_run_json_output_parses(self, tmp_path, capsys):
        f = tmp_path / "states.json"
        f.write_text('[{"name":"mix","a":"0.25","b":"0.25","c":"0.25","d":"0.25",'
                     '"eps":"0","delta":"0"}]')
        assert main(
            ["run", "--states", str(f), "--samples", "2000", "--format", "json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["results"][0]["name"] == "mix"
        assert payload["n_global_samples"] == 2000
        assert "seed" not in payload


def test_report_equality_and_types():
    rep = mixed_report()
    assert isinstance(rep, DiscordReport)
    assert rep.base is LogBase.BITS
    r = rep.results[0]
    for field in ("delta3_min", "delta2_min", "delta2", "mu1", "psi"):
        assert isinstance(getattr(r, field), float)


PACKAGE_ERRORS = tuple(v for v in vars(errors).values() if isinstance(v, type))


def check_edge_result(s, r):
    values = (r.delta3_min, r.delta2_min, r.delta2, r.diff3, r.diff2,
              r.mu1, r.mu2, r.mu3, r.psi, r.theta, r.phi)
    assert all(math.isfinite(v) for v in values)
    assert r.delta3_min >= -1e-12
    assert r.delta3_min <= r.delta2_min <= r.delta2
    p = build_povm3(PovmWeights(r.mu1, r.mu2, r.mu3), EulerAngles(r.psi, r.theta, r.phi))
    rho4 = dense_xmatrix(s.a, s.b, s.c, s.d, s.eps, s.delta)
    ce = ce_povm_oracle(rho4, p.weights.as_array(), p.dirs)
    assert abs(discord_given_conditional_entropy(s, ce, None).value - r.delta3_min) <= 1e-8


@settings(max_examples=100)
@given(edge_xstates())
def test_edge_states_valid_or_typed_error(entries):
    s = xstate_from_entries(*entries)
    try:
        [r] = run_report([("edge", s)], SearchConfig(), LogBase.BITS).results
    except PACKAGE_ERRORS:
        return
    check_edge_result(s, r)


# A = 1, A = -1 and a product state: an outcome of probability 0 and a
# degenerate (projective) optimum, whose triangle angles the solve must
# take as exactly as the rebuilt witness does; these solve, so a typed
# error on them fails
ZERO_PROBABILITY_ENTRIES = [(0.5, 0.0, 0.5, 0.0, 0.0, 0.0), (0.0, 0.5, 0.0, 0.5, 0.0, 0.0),
                            (0.28, 0.42, 0.12, 0.18, 0.0, 0.0)]
ZERO_PROBABILITY_IDS = ["a_plus1", "a_minus1", "product"]


@pytest.mark.parametrize("entries", ZERO_PROBABILITY_ENTRIES, ids=ZERO_PROBABILITY_IDS)
def test_zero_probability_states_solve(entries):
    s = xstate_from_entries(*entries)
    [r] = run_report([("edge", s)], SearchConfig(), LogBase.BITS).results
    check_edge_result(s, r)


def check_axis_value(entries):
    # delta2 is the axis value of the projective first scan, bit for bit
    # ali_candidate's; run_report solves in bits and scales to nats
    s = xstate_from_entries(*entries)
    for base, scale in ((LogBase.BITS, 1.0), (LogBase.NATS, math.log(2.0))):
        [r] = run_report([("s", s)], SearchConfig(), base).results
        assert r.delta2 == ali_candidate(s, LogBase.BITS).value * scale
        r2 = minimize_projective(s, SearchConfig(), base)
        assert r2.axis_value == min(conditional_entropy_plane(s, (1.0, 0.0), base))
        assert minimize_povm3(s, SearchConfig(), base, r2).axis_value == r2.axis_value


@pytest.mark.parametrize("entries", [*BENCH_ENTRIES.values(), *ZERO_PROBABILITY_ENTRIES],
                         ids=[*BENCH_ENTRIES, *ZERO_PROBABILITY_IDS])
def test_delta2_is_the_scanned_axis_value(entries):
    check_axis_value(entries)


@settings(max_examples=40)
@given(st.one_of(positive_xstates(), edge_xstates()))
def test_delta2_is_the_scanned_axis_value_generated(entries):
    check_axis_value(entries)


@settings(max_examples=120)
@given(st.one_of(positive_xstates(), edge_xstates()))
def test_discords_invariant_under_local_x(entries):
    # X on qubit A maps the entries to (c, d, a, b, delta, eps), X on
    # qubit B to (b, a, d, c, delta, eps), and S on both qubits to
    # (a, b, c, d, -eps, delta); local unitaries move no discord, and the
    # eps flip, which only swaps t1 and t2, moves none by over 1e-15
    a, b, c, d, eps, delta = entries
    images = {"x_on_a": (c, d, a, b, delta, eps), "x_on_b": (b, a, d, c, delta, eps),
              "eps_flip": (a, b, c, d, -eps, delta)}
    states = [(name, xstate_from_entries(*e)) for name, e in {"id": entries, **images}.items()]
    r, *moved = run_report(states, SearchConfig(), LogBase.BITS).results
    for m in moved:
        tol = 1e-15 if m.name == "eps_flip" else 1e-12
        for field in ("delta3_min", "delta2_min", "delta2"):
            assert abs(getattr(m, field) - getattr(r, field)) <= tol, (m.name, field)
