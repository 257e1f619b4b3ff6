"""Exception hierarchy shared by all epspline modules, and the one check of each
input kind: ``is_finite_real``, ``check_integer``, ``check_points``, ``check_values``."""

import math
import numbers
import operator

import numpy as np


class SplineError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInputError(SplineError, ValueError):
    """Malformed user input: unsorted knots, duplicate points, bad sizes."""


class DomainError(SplineError, ValueError):
    """Evaluation or construction outside the supported numerical domain."""


class BasisConstructionError(SplineError):
    """A local basis system is singular or too ill-conditioned to trust."""


class SingularSystemError(SplineError):
    """A system cannot be solved; for a collocation matrix, a non-finite entry or a pivot
    of its one elimination (``BandedLU``) not above ``banded.PIVOT_RTOL`` times its norm."""


def is_finite_real(value) -> bool:
    """``numbers.Real`` but not ``bool``, and finite; each caller adds its sign condition."""
    try:  # bool is an int, so numbers.Real takes True; numpy's bool_ is not a Real
        return isinstance(value, numbers.Real) and not isinstance(value, bool) \
            and math.isfinite(value)
    except OverflowError:  # an int or Fraction beyond the largest double
        return False


def check_integer(name: str, value):
    """Raise ``InvalidInputError`` unless ``value`` is an integer.

    The test is ``operator.index``: Python and numpy integers pass, while
    ``2.5``, ``2.0`` and ``"8"`` do not.
    """
    try:
        operator.index(value)
    except TypeError as exc:
        raise InvalidInputError(f"{name} must be an integer, got {value!r}") from exc


def check_points(name: str, x, min_count: int) -> np.ndarray:
    """``x`` as a float array; ``InvalidInputError`` unless it holds at least
    ``min_count`` points, 1-d, finite and strictly increasing."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or len(x) < min_count:
        raise InvalidInputError(
            f"need a 1-d array of at least {min_count} {name}, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise InvalidInputError(f"{name} must be finite")
    if np.any(x[1:] <= x[:-1]):  # not np.diff, which overflows past 1.8e308
        raise InvalidInputError(f"{name} must be sorted, strictly increasing and distinct")
    return x


def check_values(name: str, y, n: int) -> np.ndarray:
    """``y`` as a float array; ``InvalidInputError`` unless it holds ``n`` finite values."""
    y = np.asarray(y, dtype=float)
    if y.shape != (n,):
        raise InvalidInputError(f"expected {n} {name}, got shape {y.shape}")
    if not np.all(np.isfinite(y)):
        raise InvalidInputError(f"{name} must be finite")
    return y
