"""Correctness checks on the program's answers.

Each check compares a state's reported values (bits) with a property
that must hold or with a value known independently of the program:

- finite:    the call returned, and every value is finite;
- ordering:  delta3_min <= delta2_min <= delta2, within ORDER_TOL;
- sign:      every discord value >= -SIGN_TOL;
- swap:      the t1 <-> t2 swap partner (a local unitary) reports the
             same three values, within SWAP_TOL;
- reference: delta2 matches the dense value of the best axis
             measurement over x, y and z, delta2_min the dense exact
             projective optimum, and delta3_min its frozen or
             closed-form value where one is known;
- witness:   (best weights, best Euler angles) rebuild through
             build_povm3 into a POVM whose dense conditional entropy
             reproduces delta3_min, within WITNESS_TOL;
- repeat:    a later pass over the same states gives the same answers.

A failure is marked known when it belongs to a defect class the program
showed when the benchmark was written. Known failures still count in
every failure metric; only unknown ones make a run incorrect.
The known classes:

- sign: delta3_min in [-1e-6, 0) with a degenerate witness (see
  below). Near the edge of the weight region the clamped triangle
  angles no longer close, outcome probabilities need not sum to 1, and
  the search can undercut the true minimum; seen on B-pure (|A| = 1)
  and product states, whose discord is 0;
- swap: only delta2 differs and each partner's delta2 equals its dense
  z/x-axis value, i.e. the axis set lacks y;
- reference: delta2 misses the best x/y/z axis value but equals the
  z/x-axis value, the same missing y axis;
- witness: the rebuild raises DegenerateError on a degenerate witness,
  one whose direction triangle is flat to within 1e-6 (a projective
  optimum): PovmWeights accepts it with its 1e-9 margin, but the 1e-12
  arccos check in angles_from_weights rejects it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import oracle
from workloads import State
from xdiscord import DegenerateError, EulerAngles, PovmWeights, build_povm3

QUANTITIES = ("delta3_min", "delta2_min", "delta2")
CHECKS = ("finite", "ordering", "sign", "swap", "reference", "witness", "repeat")

ORDER_TOL = 1e-9
SIGN_TOL = 1e-12
SWAP_TOL = 1e-7
WITNESS_TOL = 1e-8
AXIS_TOL = 1e-9
PROJECTIVE_TOL = 1e-7
KNOWN_SIGN_FLOOR = -1e-6
DEGENERATE_SLACK = 1e-6


@dataclass(frozen=True)
class Failure:
    state: str
    check: str
    detail: str
    known: bool


class RefValues(NamedTuple):
    """Dense reference values of one state, in bits."""

    axis_zx: float  # best axis measurement over z and x only
    axis_xyz: float  # best axis measurement over x, y and z: delta2
    exact: float  # exact projective optimum: delta2_min


class Oracle:
    """Dense reference values per state, computed once and cached."""

    def __init__(self):
        self._cache: dict[tuple, RefValues] = {}

    def values(self, entries) -> RefValues:
        if entries not in self._cache:
            self._cache[entries] = RefValues(
                oracle.axis_discord(entries, "zx"),
                oracle.axis_discord(entries, "xyz"),
                oracle.exact_projective_discord(entries),
            )
        return self._cache[entries]


def check_repeat(states: list[State], results: dict, first: dict) -> list[Failure]:
    """Answers that differ from the first pass; the search is seeded, so none should."""
    return [
        Failure(s.name, "repeat", "answer changed between passes", False)
        for s in states
        if isinstance(results[s.name], dict)
        and isinstance(first[s.name], dict)
        and results[s.name] != first[s.name]
    ]


def check_results(states: list[State], results: dict, ref: Oracle):
    """Check one pass of answers.

    `results` maps a state name to a dict holding QUANTITIES and the
    witness fields mu1, mu2, mu3, psi, theta, phi, or to the exception
    its call raised. Returns (failures, largest reference error in bits).
    """
    by_name = {s.name: s for s in states}
    failures: list[Failure] = []
    ref_err = 0.0

    def fail(state, check, detail, known=False):
        failures.append(Failure(state.name, check, detail, known))

    usable = {}
    for s in states:
        r = results[s.name]
        if isinstance(r, BaseException):
            fail(s, "finite", f"raised {type(r).__name__}: {r}")
            continue
        bad = [q for q in QUANTITIES if not math.isfinite(r[q])]
        if bad:
            fail(s, "finite", f"non-finite {bad}")
            continue
        usable[s.name] = r

    for name, r in usable.items():
        s = by_name[name]
        d3, d2m, d2 = (r[q] for q in QUANTITIES)
        if not (d3 <= d2m + ORDER_TOL and d2m <= d2 + ORDER_TOL):
            fail(s, "ordering", f"delta3_min={d3!r} delta2_min={d2m!r} delta2={d2!r}")

        negative = [(q, r[q]) for q in QUANTITIES if r[q] < -SIGN_TOL]
        if negative:
            known = [q for q, _ in negative] == ["delta3_min"] and (
                d3 >= KNOWN_SIGN_FLOOR and _degenerate(r)
            )
            fail(s, "sign", f"negative {negative}", known)

        rv = ref.values(s.entries)
        err2 = d2 - rv.axis_xyz
        ref_err = max(ref_err, abs(err2))
        if abs(err2) > AXIS_TOL:
            known = abs(d2 - rv.axis_zx) <= AXIS_TOL
            fail(s, "reference", f"delta2 off by {err2:.3e} (tol {AXIS_TOL:.0e})", known)
        errs = {"delta2_min": (d2m - rv.exact, PROJECTIVE_TOL)}
        if s.delta3_known is not None:
            errs["delta3_min"] = (d3 - s.delta3_known, s.delta3_tol)
        for q, (err, tol) in errs.items():
            ref_err = max(ref_err, abs(err))
            if abs(err) > tol:
                fail(s, "reference", f"{q} off by {err:.3e} (tol {tol:.0e})")

        failures.extend(_witness(s, r))

    for name, r in usable.items():
        s = by_name[name]
        partner = usable.get(s.swap_partner) if s.swap_partner else None
        if partner is None:
            continue
        diffs = {q: r[q] - partner[q] for q in QUANTITIES if abs(r[q] - partner[q]) > SWAP_TOL}
        if diffs:
            p = by_name[s.swap_partner]
            axis_explained = set(diffs) == {"delta2"} and all(
                abs(x["delta2"] - ref.values(st.entries).axis_zx) <= AXIS_TOL
                for x, st in ((r, s), (partner, p))
            )
            fail(s, "swap", f"vs {p.name}: {diffs}", axis_explained)

    return failures, ref_err


def _degenerate(r: dict) -> bool:
    """A flat direction triangle: some weight's triangle-inequality slack
    mu_j + mu_k - mu_i = 1 - 2 mu_i is below DEGENERATE_SLACK."""
    return 1.0 - 2.0 * max(r["mu1"], r["mu2"], r["mu3"]) < DEGENERATE_SLACK


def _witness(s: State, r: dict) -> list[Failure]:
    mus = (r["mu1"], r["mu2"], r["mu3"])
    try:
        povm = build_povm3(PovmWeights(*mus), EulerAngles(r["psi"], r["theta"], r["phi"]))
    except DegenerateError as e:
        return [Failure(s.name, "witness", f"DegenerateError: {e}", _degenerate(r))]
    except ValueError as e:
        return [Failure(s.name, "witness", f"{type(e).__name__}: {e}", False)]
    dense = oracle.measured_discord(s.entries, povm.weights.as_array(), povm.dirs)
    if abs(dense - r["delta3_min"]) > WITNESS_TOL:
        return [Failure(s.name, "witness", f"dense value {dense!r} vs {r['delta3_min']!r}", False)]
    return []
