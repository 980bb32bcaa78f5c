"""Exception types shared across the package.

Each type carries the CLI exit code it ends a run with and the label the
CLI prints its message under.  Only the subclasses are raised; the base
class carries the internal-error code, so an error no subclass describes
ends a run as a bug does.
"""


class SegrenumError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 6
    label = "internal error"


class InputError(SegrenumError):
    """Malformed input: parse errors, arity mismatches, unknown names."""

    exit_code = 2
    label = "error"


class GenericityError(SegrenumError):
    """A randomized choice failed its genericity certificate after retries."""

    exit_code = 3
    label = "genericity failure"


class ImproperIntersectionError(SegrenumError):
    """Cycles meet in excess dimension; the proper intersection is undefined."""

    exit_code = 4
    label = "improper intersection"


class UnresolvedMovingSupportError(SegrenumError):
    """Moving support could not be classified as point-supported or not."""

    exit_code = 5
    label = "unresolved moving support"
