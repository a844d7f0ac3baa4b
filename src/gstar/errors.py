"""Exception hierarchy shared across the package."""

from __future__ import annotations


class GstarError(Exception):
    """Base class for all errors raised by this package."""


class GroupError(GstarError, ValueError):
    """Invalid Cayley-table data: non-square, non-Latin, no identity, ..."""


class GradingError(GstarError, ValueError):
    """Invalid grading data, e.g. repeated entries in the defining tuple."""


class ConfigError(GstarError, ValueError):
    """A config file that does not decode to a JSON value."""


class ShapeError(GstarError, ValueError):
    """Matrix operands of incompatible sizes."""


class PreconditionError(GstarError, ValueError):
    """An operation was called outside its stated precondition."""


class ResourceCapError(GstarError, RuntimeError):
    """A search exceeded its configured degree cap, node or state budget."""


class ParseError(GstarError, ValueError):
    """Syntax error in a polynomial expression, with a source position."""

    def __init__(self, message: str, position: int):
        where = "at end of input" if position < 0 else f"at position {position}"
        super().__init__(f"{message} ({where})")
        self.position = position


class InternalCheckError(GstarError, RuntimeError):
    """A runtime self-consistency assertion failed; indicates a bug."""
