"""The README's API list, library example, state-file example, scan
budget and benchmark table against the package."""

import csv
import io
import json
import re
from pathlib import Path

import xdiscord
from xdiscord.cli import load_benchmarks, main, render_table, run_report
from xdiscord.entropy import LogBase
from xdiscord.optimizer import REFINE_POINTS, SearchConfig, minimize_projective

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()
# the README with every run of whitespace one space, so a pattern may span lines
WORDS = " ".join(README.split())


def _fenced_after(text: str, marker: str) -> str:
    """The first fenced block after marker, without its fences."""
    after = text.split(marker, 1)[1]
    return after.split("```", 2)[1].split("\n", 1)[1]


def _library_names():
    block = _fenced_after(README, "## Library")
    imported = re.search(r"from xdiscord import \(([^)]*)\)", block).group(1)
    listed = README.split("Lower-level pieces", 1)[1].split("\n\n", 1)[0]
    return (
        [n.strip() for n in imported.split(",") if n.strip()],
        re.findall(r"`([A-Za-z_]\w*)`", listed),
    )


def test_library_names_are_the_public_api():
    imported, listed = _library_names()
    assert imported and listed
    assert sorted(imported + listed) == sorted(xdiscord.__all__)
    for name in xdiscord.__all__:
        assert getattr(xdiscord, name) is not None
    namespace = {}
    exec("from xdiscord import *", namespace)
    assert set(xdiscord.__all__) <= set(namespace)


def test_library_example_runs(capsys):
    namespace = {}
    exec(_fenced_after(README, "## Library"), namespace)
    value = namespace["d3"].value
    assert capsys.readouterr().out.split()[0] == str(value)
    # the example's state is rho1, whose delta3_min the benchmark table shows
    assert f" rho1 {value:.6f} " in WORDS


def test_state_file_example_validates_and_runs(tmp_path, capsys):
    f = tmp_path / "states.json"
    f.write_text(_fenced_after(README, "takes a JSON file"))
    names = [record["name"] for record in json.loads(f.read_text())]
    assert main(["validate", "--states", str(f)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert all(f"{name}: ok" in lines for name in names)
    assert main(["run", "--states", str(f), "--base", "nats", "--format", "csv"]) == 0
    rows = csv.DictReader(io.StringIO(capsys.readouterr().out))
    assert [(r["name"], r["base"]) for r in rows] == [(name, "nats") for name in names]


def test_benchmark_table_matches_run():
    shown = _fenced_after(README, "Benchmark output in bits").rstrip("\n")
    report = run_report(load_benchmarks(), SearchConfig(), LogBase.BITS)
    header, *table = render_table(report).split("\n")
    assert header.startswith("# base=")
    assert shown == "\n".join(table)


def test_scan_budget_matches_solves():
    first, later, scans, evals = re.search(
        r"a (\d+)-point scan of the axis's .*?, then (\d+)-point scans .*?; "
        r"(\w+) scans, (\d+) evaluations, on the bundled states",
        WORDS,
    ).groups()
    n_scans = ("two", "three", "four", "five", "six", "seven").index(scans) + 2
    assert int(first) == SearchConfig().n_global_samples
    assert int(later) == REFINE_POINTS
    assert int(evals) == int(first) + (n_scans - 1) * int(later)
    for _, s in load_benchmarks():
        assert minimize_projective(s).n_evals == int(evals)
    assert f"the later scans take {REFINE_POINTS} points" in WORDS
