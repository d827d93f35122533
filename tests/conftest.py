import numpy as np
import pytest

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

# the largest delta2 - delta3_min found by a search over general X
# states, above the paper's 0.004565 bits; its raw diagonal
# (0.072007, 0, 0.080864, 0.847130) sums to 1.000001, so it is
# renormalised to unit trace
_WORST_DIAG = (0.072007, 0.0, 0.080864, 0.847130)
WORST_ENTRIES = (*(x / sum(_WORST_DIAG) for x in _WORST_DIAG), 0.212863, 0.0)

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
