import csv
import io
import json
import math

import pytest
from numpy.testing import assert_allclose

from conftest import BENCH_ENTRIES, MIXED_ENTRIES
from xdiscord.cli import (
    CSV_COLUMNS,
    DiscordReport,
    load_benchmarks,
    main,
    parse_report_json,
    parse_state_file,
    render_csv,
    render_json,
    render_table,
    run_report,
)
from xdiscord import cli, optimizer
from xdiscord.entropy import LogBase
from xdiscord.errors import ParseError
from xdiscord.optimizer import SearchConfig
from xdiscord.qstate import xstate_from_entries

QUICK = SearchConfig(seed=3, n_global_samples=2000)

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

    def test_non_array_rejected(self):
        with pytest.raises(ParseError, match="array"):
            parse_state_file('{"name":"x"}')


class TestRunReport:
    def test_maximally_mixed_all_strategies_zero(self):
        rep = mixed_report()
        r = rep.results[0]
        assert abs(r.delta3_min) <= 1e-6
        assert abs(r.delta2_min) <= 1e-6
        assert abs(r.delta2) <= 1e-6

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

    def test_analytic_column_base_consistency(self):
        states = [("rho1", xstate_from_entries(*BENCH_ENTRIES["rho1"]))]
        bits = run_report(states, QUICK, LogBase.BITS).results[0]
        nats = run_report(states, QUICK, LogBase.NATS).results[0]
        assert abs(nats.delta2 - bits.delta2 * math.log(2.0)) <= 1e-9
        assert abs(nats.delta3_min - bits.delta3_min * math.log(2.0)) <= 1e-4
        assert abs(nats.delta2_min - bits.delta2_min * math.log(2.0)) <= 1e-4


    def test_zero_probability_states_keep_delta3_nonnegative(self):
        # A = 1, A = -1 and a product state: an outcome of probability 0
        # and a degenerate (projective) optimum, whose triangle angles
        # the search must take as exactly as the rebuilt witness does
        states = [
            ("a_plus1", xstate_from_entries(0.5, 0.0, 0.5, 0.0, 0.0, 0.0)),
            ("a_minus1", xstate_from_entries(0.0, 0.5, 0.0, 0.5, 0.0, 0.0)),
            ("product", xstate_from_entries(0.28, 0.42, 0.12, 0.18, 0.0, 0.0)),
        ]
        for r in run_report(states, SearchConfig(), LogBase.BITS).results:
            assert r.delta3_min >= -1e-12, r.name

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

    def test_projective_solved_once_per_state(self, monkeypatch):
        calls = []
        solve = optimizer.minimize_projective

        def counted(*args, **kwargs):
            calls.append(args[0])
            return solve(*args, **kwargs)

        monkeypatch.setattr(cli, "minimize_projective", counted)
        monkeypatch.setattr(optimizer, "minimize_projective", counted)
        states = [(name, xstate_from_entries(*e)) for name, e in BENCH_ENTRIES.items()]
        run_report(states, SearchConfig(seed=3, n_global_samples=500), LogBase.BITS)
        assert sorted(map(id, calls)) == sorted(id(s) for _, s in states)


class TestRenderers:
    def test_table_includes_seed_and_budget(self):
        rep = mixed_report()
        text = render_table(rep)
        assert "seed=3" in text
        assert "samples=2000" in text
        assert "mixed" in text

    def test_csv_columns_exact(self):
        rep = mixed_report()
        rows = list(csv.reader(io.StringIO(render_csv(rep))))
        assert rows[0] == list(CSV_COLUMNS)
        assert len(rows) == 1 + len(rep.results)
        record = dict(zip(rows[0], rows[1]))
        assert record["name"] == "mixed"
        assert record["base"] == "bits"
        assert record["seed"] == "3"
        assert float(record["mu1"]) > 0.0

    def test_json_round_trip_exact(self):
        rep = mixed_report()
        back = parse_report_json(render_json(rep))
        assert back == rep

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
            ["run", "--states", str(f), "--seed", "3", "--samples", "2000",
             "--format", "csv"]
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
        assert payload["seed"] == 7


def test_report_equality_and_types():
    rep = mixed_report()
    assert isinstance(rep, DiscordReport)
    assert rep.base is LogBase.BITS
    r = rep.results[0]
    for field in ("delta3_min", "delta2_min", "delta2", "mu1", "psi"):
        assert isinstance(getattr(r, field), float)
