import math

import numpy as np
import pytest
from hypothesis import strategies as st

from xdiscord.optimizer import PROJ_HI
from xdiscord.qstate import xstate_from_entries

# pass/fail lines appended by the acceptance tests, echoed after the run
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)

BENCH_ENTRIES = {
    "rho1": (0.027180, 0.000224, 0.027327, 0.945269, 0.141651, 0.0),
    "rho2": (0.021726, 0.010288, 0.010288, 0.957698, 0.128057, 0.0),
    "rho3": (0.0783, 0.1250, 0.1250, 0.6717, 0.0, 0.1000),
}


def _unit_trace(a, b, c, d, eps, delta):
    t = a + b + c + d
    return a / t, b / t, c / t, d / t, eps, delta


# the largest delta2 - delta3_min found by a search over general X
# states, on the face a = eps = 0 with b = d, above the paper's 0.004565
# bits; the diagonals here are renormalised to unit trace
WORST_ENTRIES = _unit_trace(0.0, 0.0760447525, 0.8479104950, 0.0760447525, 0.0, 0.2209578615)
# the largest gap found with b = c, twice the paper's 0.0009 bits for
# symmetric states; with delta = 0 as well, as at rho2, the largest is
# ~0.000905
WORST_BC_ENTRIES = _unit_trace(0.0, 0.4208000250, 0.4208000250, 0.1583999499, 0.0, 0.3851224369)

MIXED_ENTRIES = (0.25, 0.25, 0.25, 0.25, 0.0, 0.0)
BELL_ENTRIES = (0.5, 0.0, 0.0, 0.5, 0.5, 0.0)

_NEEDLE = (3.7214617976282315e-09, 0.49999999677953816)
# admissible triples at the edge of the weight region, where the law of
# cosines rounds to the end of arccos's domain: a near-projective
# triple, the corner triple of a projective 3-element witness, and a needle
# triangle returned as an optimum for a state with A = 1
EDGE_WEIGHTS = {
    "mu3_1e-7": ((1.0 - 1e-7) / 2.0, (1.0 - 1e-7) / 2.0, 1e-7),
    "box_corner": (PROJ_HI, PROJ_HI, 1.0 - 2.0 * PROJ_HI),
    "needle": (*_NEEDLE, 1.0 - _NEEDLE[0] - _NEEDLE[1]),
}


@pytest.fixture(scope="session")
def bench_states():
    return {name: xstate_from_entries(*e) for name, e in BENCH_ENTRIES.items()}


@pytest.fixture(scope="session")
def mixed_state():
    return xstate_from_entries(*MIXED_ENTRIES)


@pytest.fixture(scope="session")
def bell_state():
    return xstate_from_entries(*BELL_ENTRIES)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@st.composite
def positive_xstates(draw):
    """Entries of a positive X state: a normalized diagonal and coherences
    strictly inside the block-positivity disks."""
    diag = draw(st.lists(st.floats(1e-3, 1.0), min_size=4, max_size=4))
    a, b, c, d = (x / sum(diag) for x in diag)
    u, v = draw(st.lists(st.floats(-0.999, 0.999), min_size=2, max_size=2))
    return a, b, c, d, u * math.sqrt(a * d), v * math.sqrt(b * c)


unit = st.floats(0.0, 1.0)
sign = st.sampled_from((-1.0, 1.0))


@st.composite
def edge_xstates(draw):
    """Entries of an X state at an edge of the state set: A = +-1, pure,
    product, or on the positivity boundary eps^2 = ad, delta^2 = bc."""
    kind = draw(st.sampled_from(("a_plus1", "a_minus1", "pure", "product", "boundary")))
    p, q = draw(unit), draw(unit)
    if kind == "a_plus1":
        return p, 0.0, 1.0 - p, 0.0, 0.0, 0.0
    if kind == "a_minus1":
        return 0.0, p, 0.0, 1.0 - p, 0.0, 0.0
    if kind == "pure":
        coh = draw(sign) * math.sqrt(p * (1.0 - p))
        if draw(st.booleans()):
            return p, 0.0, 0.0, 1.0 - p, coh, 0.0
        return 0.0, p, 1.0 - p, 0.0, 0.0, coh
    if kind == "product":
        return p * q, p * (1.0 - q), (1.0 - p) * q, (1.0 - p) * (1.0 - q), 0.0, 0.0
    diag = draw(st.lists(unit, min_size=4, max_size=4).filter(lambda x: sum(x) > 0.0))
    a, b, c, d = (x / sum(diag) for x in diag)
    return a, b, c, d, draw(sign) * math.sqrt(a * d), draw(sign) * math.sqrt(b * c)
