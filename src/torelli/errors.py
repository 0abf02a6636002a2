"""Exception types shared across the package.

Every domain error carries a stable machine-readable ``code`` so the CLI can
emit ``error: <CODE>`` lines without string-matching messages.
"""


class TorelliError(Exception):
    """Base class for all package errors."""

    code = "ERROR"


class GenusMismatch(TorelliError):
    """A word or mapping class was used with an incompatible genus/rank."""

    code = "GENUS_MISMATCH"


class NotReduced(TorelliError):
    """A word literal contained an adjacent inverse pair."""

    code = "NOT_REDUCED"


class NotInJk(TorelliError):
    """A mapping class failed a required Johnson filtration membership.

    Carries the certified obstruction so callers can report it.
    """

    code = "NOT_IN_JK"

    def __init__(self, message, k=None, witness=None, degree=None):
        super().__init__(message)
        self.k = k
        self.witness = witness
        self.degree = degree


class NotALieElement(TorelliError):
    """A homogeneous series is not in the image of the free Lie ring."""

    code = "NOT_A_LIE_ELEMENT"

    def __init__(self, message, remainder=None):
        super().__init__(message)
        self.remainder = remainder


class ArfNonZero(TorelliError):
    """A quadratic form with Arf invariant 1 was passed where a
    Birman-Craggs homomorphism is required (those exist only for Arf 0)."""

    code = "ARF_NONZERO"


class MissingInverse(TorelliError):
    """An operation needed the inverse action of a mapping class that does
    not carry verified inverse images."""

    code = "MISSING_INVERSE"


class ValidationFailure(TorelliError):
    """A mapping class failed its structural validation checks."""

    code = "VALIDATION_FAILED"


class TooLarge(TorelliError):
    """A listing larger than the stated budget, refused before it is built."""

    code = "TOO_LARGE"


class ParseError(TorelliError):
    """Syntax error in a word, form literal, .map or .tor input."""

    code = "SYNTAX_ERROR"

    def __init__(self, message, line=None, column=None):
        if line is not None:
            loc = f"line {line}" + (f", col {column}" if column is not None else "")
            message = f"{loc}: {message}"
        super().__init__(message)
        self.line = line
        self.column = column
