"""Quantum discord of two-qubit X states.

Computes discord by minimizing post-measurement conditional entropy
over projective measurements and general 3-element POVMs, with a CLI
that reports bundled benchmark states in both log bases.

__all__ is the supported API, as listed in the README; everything else
stays importable from its submodule.
"""

from .discord import (
    DiscordValue,
    ali_candidate,
    conditional_entropy_povm3,
    conditional_entropy_projective,
    discord_given_conditional_entropy,
)
from .entropy import LogBase, binary_entropy, mutual_information, von_neumann_xstate
from .errors import (
    DegenerateError,
    DomainError,
    ParseError,
    PositivityError,
    TraceError,
)
from .optimizer import OptResult, SearchConfig, minimize_povm3, minimize_projective
from .povm import (
    EulerAngles,
    Povm3,
    PovmWeights,
    TriangleAngles,
    angles_from_weights,
    build_povm3,
)
from .qstate import BlochParams, XState, bloch_params, eigenvalues, xstate_from_entries

__all__ = [
    "BlochParams",
    "DegenerateError",
    "DiscordValue",
    "DomainError",
    "EulerAngles",
    "LogBase",
    "OptResult",
    "ParseError",
    "Povm3",
    "PovmWeights",
    "PositivityError",
    "SearchConfig",
    "TraceError",
    "TriangleAngles",
    "XState",
    "ali_candidate",
    "angles_from_weights",
    "binary_entropy",
    "bloch_params",
    "build_povm3",
    "conditional_entropy_povm3",
    "conditional_entropy_projective",
    "discord_given_conditional_entropy",
    "eigenvalues",
    "minimize_povm3",
    "minimize_projective",
    "mutual_information",
    "von_neumann_xstate",
    "xstate_from_entries",
]
