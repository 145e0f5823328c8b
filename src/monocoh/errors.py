"""Exception types shared across the package.

Each maps to a distinct CLI exit status: parse/usage problems exit 2,
resource-cap trips exit 3, internal consistency violations exit 4.
"""

from __future__ import annotations


class IdealSyntaxError(ValueError):
    """Raised when ideal text cannot be parsed.

    Carries the character position of the offending token so callers can
    point at it.
    """

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnitIdealError(ValueError):
    """Raised by operations that are undefined on the unit ideal (R/I = 0)."""


class ResourceCapError(RuntimeError):
    """Raised before a power or saturation box is allocated, or a table
    scanned, when its cells or degree patterns (``required``) exceed ``cap``."""

    def __init__(self, message: str, required: int, cap: int):
        super().__init__(message)
        self.required = required
        self.cap = cap

    def for_power(self, n: int, i=None) -> "ResourceCapError":
        """The same error, its message prefixed with the power it hit and,
        when given, the cohomological degree i the power was built for."""
        where = f"n={n}" if i is None else f"n={n}, i={i}"
        return ResourceCapError(f"power {where}: {self}", self.required, self.cap)


class InternalConsistencyError(RuntimeError):
    """Raised when a computed result violates an invariant that valid inputs
    can never violate; indicates a bug, never bad user input."""
