"""Exception types shared across the toolkit."""


class PapcError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(PapcError):
    """Malformed concrete syntax, with source position: a line, and a column
    counted from 1 where one is known."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        position = f"{line}:{column}" if column else f"{line}"
        super().__init__(f"{position}: {message}" if line else message)
        self.line = line
        self.column = column


class TauInPrefix(ParseError):
    """tau used as a prefix action; prefixes range over named actions only."""


class DuplicateDefinition(PapcError):
    """The same constant is bound twice in one definitions file."""


class UnguardedRecursion(PapcError):
    """A constant unfolded back to itself without passing a prefix."""


class CapExceeded(PapcError):
    """An enumeration bound was hit; raising it is preferred to sampling."""


class IllFormedPlacement(PapcError):
    """A term with running prefixes was placed where only plain processes fit."""


class NoRoot(PapcError):
    """A model file defines no `system` entry and no root was supplied."""


class UsageError(PapcError):
    """Bad command-line invocation."""
