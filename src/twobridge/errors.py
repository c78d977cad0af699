"""Exception types shared across the package."""


class TwoBridgeError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(TwoBridgeError):
    """Malformed fraction or expansion text. Carries the offending position."""

    def __init__(self, message: str, text: str, position: int):
        super().__init__(f"{message} (at position {position} in {text!r})")
        self.text = text
        self.position = position


class DomainError(TwoBridgeError):
    """Input is outside the mathematical domain of the operation."""


class PatternMatchError(TwoBridgeError):
    """A rewrite step does not match the expansion it was applied to."""


class TableDataError(TwoBridgeError):
    """The embedded knot table is corrupt. Carries the offending row."""

    def __init__(self, message: str, row: int):
        super().__init__(f"table row {row}: {message}")
        self.row = row


class UnknownNameError(TwoBridgeError):
    """Knot name not present in the embedded table."""


class InternalError(Exception):
    """A property the package guarantees did not hold: a program fault, not bad input.

    Deliberately not a TwoBridgeError, so the CLI does not report it as a
    usage or input error.
    """
