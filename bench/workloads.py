"""Workload states for the benchmark, and the state-file writer.

A workload is a list of `State` records. Each record carries the
matrix entries the program sees, the names of its invariance partners
in the same workload, and any discord values known in closed form.

- `reference`: the three bundled states with their frozen values, and
  edge states whose answers are known exactly. Fixed; the seed only
  shuffles their order.
- `general`: pairs of general X states and their t1 <-> t2
  swap partners (eps -> -eps). Diagonals are uniform on the simplex
  (Dirichlet(1,1,1,1)), coherences are uniform inside the positivity
  disks, and draws with |t1| ~ |t2| are rejected, because equal
  transverse correlations make a state symmetric under z-rotations and
  hide axis-dependent defects.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

import oracle

# draws with ||t1| - |t2|| below this are rejected
T_GAP_MIN = 0.05

# The corpus holds equal numbers of pairs from two strata: pairs whose
# larger transverse axis beats the z axis as a projective measurement
# (72% of 4000 kept draws; they cost about twice as much to solve and
# expose the missing y axis in delta2) and pairs where z wins. Fixing
# the split removes the largest source of run-to-run spread.
#
# Pairs per stratum come from CORE_SEED, shared by every run, and from
# the run's own seed: three of the four pairs are the same on every
# run. The shared core keeps timings comparable across seeds on a
# corpus small enough for about three passes to fit a run; the seeded
# pair puts a new state of the costlier stratum in front of the checks
# on every run. Grow SEEDED_PAIRS when faster solves fit more states.
CORE_SEED = 14046329
CORE_PAIRS = {"transverse": 1, "z": 2}
SEEDED_PAIRS = {"transverse": 1}


@dataclass(frozen=True)
class State:
    name: str
    entries: tuple[float, float, float, float, float, float]
    swap_partner: str | None = None
    # closed-form or frozen delta3_min in bits, with its tolerance
    delta3_known: float | None = None
    delta3_tol: float = 0.0


def swapped(entries):
    """Entries of the t1 <-> t2 swap partner: eps -> -eps."""
    a, b, c, d, eps, delta = entries
    return (a, b, c, d, -eps, delta)


def _h2(p: float) -> float:
    return -sum(x * math.log2(x) for x in (p, 1.0 - p) if x > 0.0)


def reference_states() -> list[State]:
    """Bundled states plus edge states with exactly known answers."""
    frozen = [
        # name, entries, delta3_min in bits as frozen by the test suite
        ("rho1", (0.027180, 0.000224, 0.027327, 0.945269, 0.141651, 0.0), 0.123010),
        ("rho2", (0.021726, 0.010288, 0.010288, 0.957698, 0.128057, 0.0), 0.107873),
        ("rho3", (0.0783, 0.1250, 0.1250, 0.6717, 0.0, 0.1000), 0.132730),
    ]
    out = [State(n, e, delta3_known=v, delta3_tol=1e-4) for n, e, v in frozen]
    exact = 1e-7
    # B pure along +z / -z: product states, and half the outcomes of a
    # measurement along z have probability zero
    out.append(State("a_plus1", (0.5, 0.0, 0.5, 0.0, 0.0, 0.0), None, 0.0, exact))
    out.append(State("a_minus1", (0.0, 0.5, 0.0, 0.5, 0.0, 0.0), None, 0.0, exact))
    # pure entangled state: every rank-1 measurement leaves A pure
    out.append(State("pure", (0.8, 0.0, 0.0, 0.2, 0.4, 0.0), None, _h2(0.8), exact))
    # product of diagonal qubit states
    out.append(State("product", (0.28, 0.42, 0.12, 0.18, 0.0, 0.0), None, 0.0, exact))
    out.append(State("mixed", (0.25, 0.25, 0.25, 0.25, 0.0, 0.0), None, 0.0, exact))
    out.append(State("bell", (0.5, 0.0, 0.0, 0.5, 0.5, 0.0), None, 1.0, exact))
    # rank-2 Bell-diagonal state on both positivity boundaries; t1 = 1, so
    # measuring x leaves A pure and discord is S(rho_B) - S(rho_AB) = 1 - h(0.8)
    out.append(
        State("boundary", (0.4, 0.1, 0.1, 0.4, 0.4, 0.1), None, 1.0 - _h2(0.8), exact)
    )
    # t1 = 0, t2 = -0.8: classical along y, so discord is 0, and the swap
    # partner moves the correlation onto x
    out.append(State("yaxis", (0.25, 0.25, 0.25, 0.25, 0.2, -0.2), "yaxis_swap", 0.0, exact))
    out.append(State("yaxis_swap", (0.25, 0.25, 0.25, 0.25, 0.2, 0.2), "yaxis", 0.0, exact))
    return out


def _draw_entries(rng: np.random.Generator):
    u = np.sort(rng.uniform(0.0, 1.0, size=3))
    a, b, c, d = np.diff(np.concatenate(([0.0], u, [1.0])))
    eps = rng.uniform(-1.0, 1.0) * math.sqrt(a * d)
    delta = rng.uniform(-1.0, 1.0) * math.sqrt(b * c)
    return tuple(float(v) for v in (a, b, c, d, eps, delta))


def stratum(entries) -> str:
    """'transverse' when the larger transverse axis beats z, else 'z'."""
    t1, t2 = oracle.transverse(entries)
    wide = "x" if abs(t1) >= abs(t2) else "y"
    return "transverse" if oracle.axis_discord(entries, wide) < oracle.axis_discord(entries, "z") else "z"


def _draw_pairs(rng: np.random.Generator, counts: dict[str, int], prefix: str) -> list[State]:
    pending = dict(counts)
    out: list[State] = []
    while any(pending.values()):
        entries = _draw_entries(rng)
        t1, t2 = oracle.transverse(entries)
        if abs(abs(t1) - abs(t2)) < T_GAP_MIN:
            continue
        kind = stratum(entries)
        if not pending.get(kind):
            continue
        pending[kind] -= 1
        base = f"{prefix}{len(out) // 2:02d}"
        out.append(State(f"{base}a", entries, f"{base}b"))
        out.append(State(f"{base}b", swapped(entries), f"{base}a"))
    return out


def general_states(seed: int) -> list[State]:
    core = _draw_pairs(np.random.default_rng(CORE_SEED), CORE_PAIRS, "core")
    seeded = _draw_pairs(np.random.default_rng(seed), SEEDED_PAIRS, "seed")
    return core + seeded


def make_workload(name: str, seed: int) -> list[State]:
    if name == "reference":
        states = reference_states()
        order = np.random.default_rng(seed).permutation(len(states))
        return [states[i] for i in order]
    if name == "general":
        return general_states(seed)
    raise ValueError(f"unknown workload {name!r}")


def state_file_text(states: list[State]) -> str:
    """A `discord run --states` file; repr keeps every float exact."""
    fields = ("a", "b", "c", "d", "eps", "delta")
    records = [
        {"name": s.name, **{f: repr(v) for f, v in zip(fields, s.entries)}} for s in states
    ]
    return json.dumps(records, indent=1) + "\n"
