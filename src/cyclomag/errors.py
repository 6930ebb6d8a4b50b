"""Exception hierarchy shared by all cyclomag modules."""


class CyclomagError(Exception):
    """Base class for all errors raised by this package."""


class InputError(CyclomagError, ValueError):
    """A caller supplied malformed input (unknown node, bad query, bad name)."""


class NodeSetError(InputError, TypeError):
    """A node set that is neither one name nor an iterable of hashable names.

    Also a ``TypeError``, which such a value raised before it was checked.
    """


class ParseError(InputError):
    """A graph document failed to parse; carries source position."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class PreconditionError(CyclomagError):
    """An operation was invoked on an object that violates its precondition."""


class OracleCapError(CyclomagError):
    """An exhaustive oracle was asked to run on a graph above its size cap."""
