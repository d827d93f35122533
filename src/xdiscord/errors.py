"""Exception types shared across the package."""


class TraceError(ValueError):
    """Diagonal entries of a candidate state do not sum to 1."""


class PositivityError(ValueError):
    """Candidate state violates positive semidefiniteness."""


class DomainError(ValueError):
    """Argument lies outside the mathematical domain of a function."""


class DegenerateError(ValueError):
    """POVM weight triple lies on or outside the admissible region boundary."""


class ParseError(ValueError):
    """State file is malformed."""
