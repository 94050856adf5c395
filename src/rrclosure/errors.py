"""Typed errors. Every error class carries a stable ``code`` string that the
CLI puts in its diagnostics and JSON reports."""


class RRClosureError(Exception):
    """Base class for all computation errors raised by this package."""

    code = "ERROR"


class FieldError(RRClosureError):
    code = "FIELD_ERROR"


class RingMismatchError(RRClosureError):
    code = "RING_MISMATCH"


class ZeroPolynomialError(RRClosureError):
    code = "ZERO_POLYNOMIAL"


class ExponentOverflowError(RRClosureError):
    code = "EXPONENT_OVERFLOW"


class NotMPrimaryError(RRClosureError):
    """Input ideal is not m-primary; ``witness`` explains which check failed."""

    code = "NOT_M_PRIMARY"

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class GenericityFailureError(RRClosureError):
    code = "GENERICITY_FAILURE"


class NotSuperficialError(RRClosureError):
    code = "NOT_SUPERFICIAL"


class ElementNotInIdealError(RRClosureError):
    code = "ELEMENT_NOT_IN_IDEAL"


class BoundTooLargeError(RRClosureError):
    code = "BOUND_TOO_LARGE"


class ChainUnstableError(RRClosureError):
    code = "CHAIN_UNSTABLE"


class CertifiedBoundViolation(AssertionError):
    """A certified bound failed: a bug or a forged certificate, not a user error."""


class ParseError(RRClosureError):
    """Syntax or semantic error in a problem file or polynomial expression."""

    code = "PARSE_ERROR"

    def __init__(self, message, position=None):
        if position is not None:
            message = f"{message} (at offset {position})"
        super().__init__(message)
        self.position = position
