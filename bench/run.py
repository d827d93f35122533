"""Time-to-discord benchmark for xdiscord.

Run from the root of a source checkout:

    python3 bench/run.py --workload general --seed 1 --seconds 50 --trace 0

One client process calls `xdiscord.cli.run_report`, the entry behind
`discord run`, once per state in a closed loop (the next call starts
when the last one returns) and renders each report with `render_json`,
as `discord run --format json` does. The states come from a generated
`--states` file, parsed with `parse_state_file` exactly as
`discord run --states` does. Workloads:

- reference: the bundled states and edge states with known answers
  (B pure along z, pure, product, maximally mixed, Bell, positivity
  boundary, and a y-axis state with its swap partner). Short
  refinements; zero-probability outcomes.
- general: seeded pairs of general X states and their t1 <-> t2 swap
  partners. POVM refinement dominates.

Passes over the workload repeat while the next one is expected to end
within --seconds; at least one pass runs. Every answer is checked (see
checks.py). The last line of output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones. setup_s is the
median wall time of a fresh interpreter importing xdiscord and parsing
the state file. states_per_s is the states completed over the time of
all passes. fail_frac and witness_fail_frac are the shares of
computations failing a check (see checks.py). delta3_rel is the summed
delta3_min over the summed exact projective discord from the dense
oracle; a search that settles for worse optima raises it. With
--trace 1 the program's public functions are wrapped in spans and the
per-layer metrics are reported instead; spans are written to
bench/out/:

- cli.*: parse time, run_report wall per state (mean and median), pool
  overhead (wall not covered by the state's own spans), render_json
  time;
- optimizer.*: projective calls, time and evaluations per state;
  minimize_povm3 self time (without its nested projective solve),
  evaluations, refinement evaluations and rate, convergence;
  refinement time and its share of the state's time: minimize_povm3
  self time less that of a probe call on the same state cut to one
  refinement sweep per start (the Monte-Carlo sweep and set-up), so
  the residual sweeps count against refinement and it is a lower bound;
- discord.assemble_s: ali_candidate plus discord assembly per state;
- check.*: failures per check, the failure shares, the largest error
  against a known value;
- trace.*: spans per state, the measured cost of one span around a
  no-op, and the overhead that implies against the traced run time: an
  estimate, because the run-to-run drift of an untraced comparison run
  is far larger than the overhead.

`attempted` counts state computations; `failed` counts those that
raised, returned non-finite values, changed between passes, or failed
a check outside the known-defect classes, and `correct` is true when
`failed` is 0 and set-up parsed every state.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import replace

import tracing
import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(BENCH_DIR, "out")
WORKLOADS = ("reference", "general")
SETUP_REPEATS = 11
SETUP_TIMEOUT_S = 60

SETUP_CODE = (
    "import sys\n"
    "import xdiscord\n"
    "from xdiscord.cli import parse_state_file\n"
    "with open(sys.argv[1], encoding='utf-8') as fh:\n"
    "    print(len(parse_state_file(fh.read())))\n"
)

# name, unit for every metric a run prints
END_TO_END = (
    ("setup_s", "s"),
    ("states_per_s", "1/s"),
    ("fail_frac", "ratio"),
    ("witness_fail_frac", "ratio"),
    ("delta3_rel", "ratio"),
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def git_commit(root: str) -> str:
    if not os.path.isdir(os.path.join(root, ".git")):
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "-C", root, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def measure_setup(src: str, state_path: str, n_states: int):
    """Wall times of fresh interpreters importing xdiscord and parsing the file."""
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    times, ok = [], True
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, state_path],
            capture_output=True, text=True, env=env, timeout=SETUP_TIMEOUT_S,
        )
        times.append(time.perf_counter() - t0)
        ok = ok and proc.returncode == 0 and proc.stdout.strip() == str(n_states)
    return times, ok


def run_pass(cli, named, cfg, base, tracer):
    """One call per state, rendered to JSON and read back as `discord run
    --format json` would print it; answers by name."""
    results = {}
    for name, xs in named:
        root = tracer.root("cli.run_report") if tracer else contextlib.nullcontext()
        try:
            with root:
                report = cli.run_report([(name, xs)], cfg, base)
            [results[name]] = json.loads(cli.render_json(report))["results"]
        except Exception as e:  # a raising call is a counted failure, not a crash
            results[name] = e
    return results


def run_passes(cli, named, cfg, base, tracer, seconds):
    """Whole passes, (answers, seconds), while the next is expected to end within `seconds`."""
    passes, start = [], time.perf_counter()
    while True:
        t0 = time.perf_counter()
        results = run_pass(cli, named, cfg, base, tracer)
        took = time.perf_counter() - t0
        passes.append((results, took))
        if time.perf_counter() - start + took > seconds:
            return passes


def check_passes(states, passes, checks):
    """Check every pass; failure counts and shares, quality ratios, failures."""
    ref = checks.Oracle()
    first = passes[0][0]
    attempted = len(states) * len(passes)
    failed = any_fail = witness_fail = 0
    ref_err = 0.0
    counts = defaultdict(int)
    sums = {"delta3": 0.0, "exact2": 0.0}
    every = []
    for results, _ in passes:
        failures, err = checks.check_results(states, results, ref)
        failures += checks.check_repeat(states, results, first)
        ref_err = max(ref_err, err)
        every += failures
        by_state = defaultdict(list)
        for f in failures:
            by_state[f.state].append(f)
        for s in states:
            fs = by_state[s.name]
            for check in {f.check for f in fs}:
                counts[check] += 1
            failed += any(not f.known for f in fs)
            any_fail += any(f.check != "witness" for f in fs)
            witness_fail += any(f.check == "witness" for f in fs)
            r = results[s.name]
            if isinstance(r, dict):
                sums["delta3"] += r["delta3_min"]
                sums["exact2"] += ref.values(s.entries).exact
    return {
        "attempted": attempted,
        "failed": failed,
        "counts": counts,
        "failures": every,
        "ref_err": ref_err,
        "fail_frac": any_fail / attempted,
        "witness_fail_frac": witness_fail / attempted,
        "delta3_rel": sums["delta3"] / sums["exact2"],
    }


def end_to_end_metrics(passes, summary, setup_times):
    n_states = len(passes[0][0]) * len(passes)
    values = {
        "setup_s": (statistics.median(setup_times), len(setup_times)),
        "states_per_s": (n_states / sum(took for _, took in passes), n_states),
    }
    for name in ("fail_frac", "witness_fail_frac", "delta3_rel"):
        values[name] = (summary[name], summary["attempted"])
    return {name: (values[name][0], unit, values[name][1]) for name, unit in END_TO_END}


def install_tracing(tracer, xd):
    """Wrap the public functions of each layer, in every namespace that calls them."""
    def opt_attrs(out):
        return {"n_evals": out.n_evals, "converged": out.converged}

    for module in (xd.optimizer, xd.cli):
        tracer.install(module, "minimize_povm3", "optimizer.minimize_povm3", opt_attrs)
        tracer.install(module, "minimize_projective", "optimizer.minimize_projective", opt_attrs)
    for name in ("ali_candidate", "discord_given_conditional_entropy"):
        tracer.install(xd.cli, name, f"discord.{name}")
    tracer.install(xd.cli, "parse_state_file", "cli.parse_state_file")
    tracer.install(xd.cli, "render_json", "cli.render_json")


def povm3_self_times(spans) -> list[float]:
    """minimize_povm3 span times less their nested projective solves."""
    kids = defaultdict(list)
    for s in spans:
        if s.name == "optimizer.minimize_projective" and s.parent is not None:
            kids[s.parent].append(s)
    return [tracing.self_time(s, kids[s.id]) for s in spans if s.name == "optimizer.minimize_povm3"]


def sweep_probe_s(xd, named, cfg, base) -> float:
    """Mean minimize_povm3 self time per state with one refinement sweep
    per start: the Monte-Carlo sweep and set-up that refinement excludes."""
    tracer = tracing.Tracer()
    tracer.install(xd.optimizer, "minimize_povm3", "optimizer.minimize_povm3")
    tracer.install(xd.optimizer, "minimize_projective", "optimizer.minimize_projective")
    probe = replace(cfg, n_refine_iters=1)
    try:
        for _, xs in named:
            xd.optimizer.minimize_povm3(xs, probe, base)
    finally:
        tracer.uninstall()
    return statistics.fmean(povm3_self_times(tracer.spans))


def span_cost_us() -> float:
    """Measured cost of one traced call around a no-op, in microseconds."""
    class Ns:
        @staticmethod
        def noop():
            return None

    n = 20000
    t0 = time.perf_counter()
    for _ in range(n):
        Ns.noop()
    bare = time.perf_counter() - t0
    tracer = tracing.Tracer()
    tracer.install(Ns, "noop", "noop")
    t0 = time.perf_counter()
    for _ in range(n):
        Ns.noop()
    traced = time.perf_counter() - t0
    return max(traced - bare, 0.0) / n * 1e6


def per_layer_metrics(spans, n_states, summary, cfg, parse_times, sweep_s, check_names):
    kids = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            kids[s.parent].append(s)
    named = defaultdict(list)
    for s in spans:
        named[s.name].append(s)

    def total(name):
        return sum(s.duration for s in named[name])

    roots = named["cli.run_report"]
    povm, proj = named["optimizer.minimize_povm3"], named["optimizer.minimize_projective"]
    povm_self = sum(povm3_self_times(spans))
    povm_evals = sum(s.attrs["n_evals"] for s in povm)
    refine_s = povm_self - sweep_s * len(povm)
    # time inside the program's calls for each state, summed over states
    state_time = sum(sum(k.duration for k in kids[r.id]) for r in roots)
    assemble = total("discord.ali_candidate") + total("discord.discord_given_conditional_entropy")
    renders = named["cli.render_json"]
    per_state = 1.0 / n_states
    states_per_root = n_states / len(roots)
    traced_spans = [s for s in spans if s.name != "cli.parse_state_file"]
    spans_per_state = len(traced_spans) * per_state
    run_s = total("cli.run_report") * per_state
    span_us = span_cost_us()
    counts = summary["counts"]
    m = {
        "cli.parse_s": (statistics.median(parse_times), "s", len(parse_times)),
        "cli.run_report_s": (run_s, "s", len(roots)),
        "cli.state_s_p50": (
            statistics.median(r.duration / states_per_root for r in roots), "s", len(roots)
        ),
        "cli.pool_overhead_s": (
            sum(r.duration - tracing.covered(kids[r.id], r.start, r.end) for r in roots) * per_state,
            "s", len(roots),
        ),
        "cli.render_s": (total("cli.render_json") / len(renders) if renders else 0.0, "s", len(renders)),
        "optimizer.projective_calls_per_state": (len(proj) * per_state, "count", n_states),
        "optimizer.projective_s": (total("optimizer.minimize_projective") * per_state, "s", len(proj)),
        "optimizer.projective_evals": (
            sum(s.attrs["n_evals"] for s in proj) * per_state, "count", len(proj)
        ),
        "optimizer.povm3_self_s": (povm_self * per_state, "s", len(povm)),
        "optimizer.povm3_evals": (povm_evals * per_state, "count", len(povm)),
        "optimizer.povm3_refine_evals": (
            (povm_evals - cfg.n_global_samples * len(povm)) * per_state, "count", len(povm)
        ),
        "optimizer.povm3_evals_per_s": (povm_evals / povm_self if povm_self else 0.0, "1/s", len(povm)),
        "optimizer.povm3_converged_frac": (
            sum(s.attrs["converged"] for s in povm) / len(povm) if povm else 0.0, "ratio", len(povm)
        ),
        "optimizer.refine_s": (refine_s * per_state, "s", len(povm)),
        "optimizer.refine_share": (refine_s / state_time if state_time else 0.0, "ratio", len(povm)),
        "discord.assemble_s": (assemble * per_state, "s", n_states),
        "trace.spans_per_state": (spans_per_state, "count", len(traced_spans)),
        "trace.span_cost_us": (span_us, "us", 1),
        "trace.overhead_frac": (spans_per_state * span_us * 1e-6 / run_s if run_s else 0.0, "ratio", 1),
    }
    for check in check_names:
        m[f"check.{check}_fail"] = (counts.get(check, 0), "count", summary["attempted"])
    m["check.unknown_fail"] = (summary["failed"], "count", summary["attempted"])
    m["check.fail_frac"] = (summary["fail_frac"], "ratio", summary["attempted"])
    m["check.witness_fail_frac"] = (summary["witness_fail_frac"], "ratio", summary["attempted"])
    m["check.ref_err_max_bits"] = (summary["ref_err"], "bits", summary["attempted"])
    return m


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "xdiscord", "__init__.py")):
        print(f"error: no xdiscord sources under {src}; run from a source checkout", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, src)

    import numpy as np

    import checks  # imports xdiscord
    import xdiscord.cli
    import xdiscord.optimizer
    from xdiscord import LogBase, SearchConfig

    states = workloads.make_workload(args.workload, args.seed)
    os.makedirs(OUT_DIR, exist_ok=True)
    tag = f"{args.workload}-{args.seed}-{os.getpid()}"
    state_path = os.path.join(OUT_DIR, f"states-{tag}.json")
    with open(state_path, "w", encoding="utf-8") as fh:
        fh.write(workloads.state_file_text(states))

    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        install_tracing(tracer, xdiscord)
        setup_times, setup_ok = [], True
    else:
        setup_times, setup_ok = measure_setup(src, state_path, len(states))

    with open(state_path, encoding="utf-8") as fh:
        text = fh.read()
    named = xdiscord.cli.parse_state_file(text)
    parse_times = []
    if tracer is not None:
        for _ in range(SETUP_REPEATS - 1):
            xdiscord.cli.parse_state_file(text)
        parse_times = [s.duration for s in tracer.spans if s.name == "cli.parse_state_file"]
    # check against exactly the numbers the program parsed
    parsed = {name: xs for name, xs in named}
    states = [
        replace(s, entries=tuple(float(getattr(parsed[s.name], f)) for f in ("a", "b", "c", "d", "eps", "delta")))
        for s in states
    ]

    os.environ.pop("DISCORD_THREADS", None)  # the default pool, as a plain `discord run`
    cfg = SearchConfig()  # the defaults `discord run` uses
    passes = run_passes(xdiscord.cli, named, cfg, LogBase.BITS, tracer, args.seconds)

    summary = check_passes(states, passes, checks)

    if tracer is not None:
        tracer.uninstall()
        sweep_s = sweep_probe_s(xdiscord, named, cfg, LogBase.BITS)
        n_states = len(states) * len(passes)
        metrics = per_layer_metrics(
            tracer.spans, n_states, summary, cfg, parse_times, sweep_s, checks.CHECKS
        )
        tracer.dump(os.path.join(OUT_DIR, f"spans-{tag}.json"))
    else:
        metrics = end_to_end_metrics(passes, summary, setup_times)

    correct = setup_ok and summary["failed"] == 0
    print(
        f"# workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace} "
        f"nproc={nproc()} python={platform.python_version()} numpy={np.__version__} "
        f"commit={git_commit(root)}"
    )
    print(f"# states={len(states)} passes={len(passes)} attempted={summary['attempted']} "
          f"failed={summary['failed']} correct={str(correct).lower()}")
    print(f"{'metric':<40}{'value':>16}  {'unit':<8}{'n':>6}")
    for name, (value, unit, n) in metrics.items():
        print(f"{name:<40}{value:>16.6g}  {unit:<8}{n:>6}")
    seen = set()
    for f in summary["failures"]:
        if (f.state, f.check) not in seen:
            seen.add((f.state, f.check))
            print(f"# {'known' if f.known else 'FAIL'} {f.check} {f.state}: {f.detail}")
    print(json.dumps({
        "correct": correct,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {name: {"value": v, "unit": u} for name, (v, u, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
