"""Command-line front end.

Subcommands:

  run        compute delta3_min, delta2_min, delta2 and differences per state
  validate   parse and validate a state file

State files are JSON arrays of records whose fields are JSON numbers
or plain decimal strings:

  [{"name":"rho1","a":"0.027180","b":"0.000224","c":"0.027327",
    "d":"0.945269","eps":"0.141651","delta":"0"}]
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import re
import sys
from dataclasses import dataclass, fields
from importlib import resources

# ali_candidate, discord_given_conditional_entropy: unused, bound for bench/run.py --trace 1
from .discord import _discords, ali_candidate, discord_given_conditional_entropy  # noqa: F401
from .entropy import LogBase
from .errors import ParseError
from .optimizer import SearchConfig, minimize_povm3, minimize_projective
from .qstate import XState, xstate_from_entries

RECORD_FIELDS = ("a", "b", "c", "d", "eps", "delta")
DECIMAL = re.compile(r"[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?")


@dataclass(frozen=True)
class StateResult:
    """Per-state discord values, differences, and the 3-POVM witness."""

    name: str
    delta3_min: float
    delta2_min: float
    delta2: float
    diff3: float
    diff2: float
    mu1: float
    mu2: float
    mu3: float
    psi: float
    theta: float
    phi: float


CSV_COLUMNS = (*(f.name for f in fields(StateResult)), "base")


@dataclass(frozen=True)
class DiscordReport:
    results: tuple[StateResult, ...]
    base: LogBase
    n_global_samples: int


def parse_state_file(text: str) -> list[tuple[str, XState]]:
    """Parse a JSON state file into named, validated X states."""
    try:
        # floats, not ints, so an integer literal too large for a float
        # reads as inf and fails validation instead of overflowing
        data = json.loads(text, parse_int=float)
    except json.JSONDecodeError as e:
        raise ParseError(f"line {e.lineno}: {e.msg}") from e
    if not isinstance(data, list):
        raise ParseError(f"expected a top-level JSON array, got {type(data).__name__}")
    out = []
    seen = set()
    for i, rec in enumerate(data):
        if not isinstance(rec, dict):
            raise ParseError(f"record {i}: expected an object, got {type(rec).__name__}")
        name = rec.get("name")
        if not isinstance(name, str) or not name:
            raise ParseError(f"record {i}: missing or empty 'name'")
        if name in seen:
            raise ParseError(f"record {i}: duplicate name {name!r}")
        seen.add(name)
        vals = []
        for fld in RECORD_FIELDS:
            if fld not in rec:
                raise ParseError(f"record '{name}': missing field '{fld}'")
            v = rec[fld]
            # float() would take True, "0.2_5" and "nan"
            if not (type(v) is float or isinstance(v, str) and DECIMAL.fullmatch(v)):
                raise ParseError(f"record '{name}': bad number for '{fld}': {v!r}")
            vals.append(float(v))
        try:
            state = xstate_from_entries(*vals)
        except ValueError as e:
            raise ParseError(f"record '{name}': {e}") from e
        out.append((name, state))
    return out


def load_benchmarks() -> list[tuple[str, XState]]:
    """The three bundled benchmark states."""
    text = resources.files("xdiscord").joinpath("data/benchmarks.json").read_text()
    return parse_state_file(text)


def _compute_state(name: str, s: XState, cfg: SearchConfig, scale: float) -> StateResult:
    """One state, solved in bits; delta2 is the projective solve's axis_value."""
    bits = LogBase.BITS
    r2 = minimize_projective(s, cfg, bits)
    r3 = minimize_povm3(s, cfg, bits, r2)
    d3, d2m, d2 = _discords(s, (r3.best_value, r2.best_value, r2.axis_value), bits)
    w, e = r3.best_weights, r3.best_euler
    return StateResult(
        name=name,
        delta3_min=d3 * scale,
        delta2_min=d2m * scale,
        delta2=d2 * scale,
        diff3=(d3 - d2) * scale,
        diff2=(d2m - d2) * scale,
        mu1=w.mu1, mu2=w.mu2, mu3=w.mu3,
        psi=e.psi, theta=e.theta, phi=e.phi,
    )


def run_report(states, cfg: SearchConfig, base: LogBase) -> DiscordReport:
    """Compute the three-strategy comparison for every state, in input
    order. Each is solved once, in bits; nats only rescales by ln 2."""
    scale = 1.0 if base is LogBase.BITS else math.log(2.0)
    return DiscordReport(
        results=tuple(_compute_state(name, s, cfg, scale) for name, s in states),
        base=base,
        n_global_samples=cfg.n_global_samples,
    )


def render_table(report: DiscordReport) -> str:
    lines = [
        f"# base={report.base.value} samples={report.n_global_samples}",
        f"{'name':<12}{'delta3_min':>12}{'delta2_min':>12}{'delta2':>12}"
        f"{'diff3':>14}{'diff2':>14}",
    ]
    for r in report.results:
        lines.append(
            f"{r.name:<12}{r.delta3_min:>12.6f}{r.delta2_min:>12.6f}{r.delta2:>12.6f}"
            f"{r.diff3:>14.4e}{r.diff2:>14.4e}"
        )
    return "\n".join(lines)


def render_json(report: DiscordReport) -> str:
    payload = {
        "base": report.base.value,
        "n_global_samples": report.n_global_samples,
        "results": [vars(r) for r in report.results],
    }
    return json.dumps(payload, indent=2)


def render_csv(report: DiscordReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    # the csv module writes floats by repr, so they round-trip exactly
    writer.writerows((*vars(r).values(), report.base.value) for r in report.results)
    return buf.getvalue()


def _gather_states(args) -> list[tuple[str, XState]]:
    states: list[tuple[str, XState]] = []
    if args.benchmarks:
        states.extend(load_benchmarks())
    if args.states is not None:
        with open(args.states, encoding="utf-8") as fh:
            extra = parse_state_file(fh.read())
        # parse_state_file rejects a repeat within one file
        bundled = {name for name, _ in states}
        for name, _ in extra:
            if name in bundled:
                raise ParseError(f"{args.states}: state {name!r} is also a bundled benchmark")
        states.extend(extra)
    return states


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="discord", description="Quantum discord of two-qubit X states."
    )
    subs = parser.add_subparsers(dest="command", required=True)

    run = subs.add_parser("run", help="compute discord for each state")
    run.add_argument("--states", help="path to a JSON state file")
    run.add_argument(
        "--benchmarks", action="store_true", help="include the bundled benchmark states"
    )
    run.add_argument("--base", choices=["bits", "nats"], default="bits")
    samples = SearchConfig().n_global_samples
    run.add_argument(
        "--samples", type=int, default=samples,
        help=f"points of the first scan of each 1-D solve (default {samples})",
    )
    run.add_argument("--format", choices=["table", "json", "csv"], default="table")

    val = subs.add_parser("validate", help="validate a state file")
    val.add_argument("--states", required=True, help="path to a JSON state file")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            states = _gather_states(args)
            if not states and not (args.benchmarks or args.states):
                parser.error("run requires --states and/or --benchmarks")
            cfg = SearchConfig(n_global_samples=args.samples)
            report = run_report(states, cfg, LogBase(args.base))
            renderer = {"table": render_table, "json": render_json, "csv": render_csv}
            print(renderer[args.format](report), end="" if args.format == "csv" else "\n")
        elif args.command == "validate":
            with open(args.states, encoding="utf-8") as fh:
                states = parse_state_file(fh.read())
            for name, _ in states:
                print(f"{name}: ok")
            print(f"{len(states)} state(s) valid")
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
