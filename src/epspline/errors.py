"""Exception hierarchy shared by all epspline modules."""

import operator


class SplineError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInputError(SplineError, ValueError):
    """Malformed user input: unsorted knots, duplicate points, bad sizes."""


class DomainError(SplineError, ValueError):
    """Evaluation or construction outside the supported numerical domain."""


class BasisConstructionError(SplineError):
    """A local basis system is singular or too ill-conditioned to trust."""


class SingularSystemError(SplineError):
    """The collocation system is singular to working precision."""


def check_integer(name: str, value):
    """Raise ``InvalidInputError`` unless ``value`` is an integer.

    The test is ``operator.index``: Python and numpy integers pass, while
    ``2.5``, ``2.0`` and ``"8"`` do not.
    """
    try:
        operator.index(value)
    except TypeError as exc:
        raise InvalidInputError(f"{name} must be an integer, got {value!r}") from exc
