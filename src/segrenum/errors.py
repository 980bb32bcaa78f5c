"""Exception types shared across the package.

Each maps to a CLI exit code; see the EXIT_* constants in cli.
"""


class SegrenumError(Exception):
    """Base class for all errors raised by this package."""


class InputError(SegrenumError):
    """Malformed input: parse errors, arity mismatches, unknown names."""


class GenericityError(SegrenumError):
    """A randomized choice failed its genericity certificate after retries."""

    def __init__(self, message, codim=None):
        super().__init__(message)
        self.codim = codim


class ImproperIntersectionError(SegrenumError):
    """Cycles meet in excess dimension; the proper intersection is undefined."""


class UnresolvedMovingSupportError(SegrenumError):
    """Moving support could not be classified as point-supported or not."""
