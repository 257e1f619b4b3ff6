"""Four-dimensional exponential segment space and its pointwise evaluation.

Every spline segment produced by this package lives in the span of the four
generators ``exp(a*t)``, ``t*exp(a*t)``, ``exp(-a*t)``, ``t*exp(-a*t)`` for a
fixed rate ``a > 0``, always evaluated in segment-local coordinates so the
exponents stay small.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvalidInputError, is_finite_real

# |a*t| beyond this overflows double precision.
EXP_ARG_LIMIT = 700.0


@dataclass(frozen=True)
class ExpSpace:
    """Exponential segment space parameterized by the positive rate ``alpha``.

    ``alpha`` has units of inverse length of the x-axis: what matters
    numerically is ``alpha`` times the local interval length.
    """

    alpha: float

    def __post_init__(self):
        if not (is_finite_real(self.alpha) and self.alpha > 0.0):
            raise InvalidInputError(f"alpha must be a positive finite real, got {self.alpha!r}")


def segment_basis_eval(z, tau, deriv_order: int = 0) -> np.ndarray:
    """Well-conditioned basis of one segment in normalized coordinates.

    A segment of length ``h`` with rate ``alpha`` is parameterized by
    ``tau = (x - left) / h`` in [0, 1] and ``z = alpha * h``. The four
    functions span the same space as the raw exponential generators but stay
    numerically independent as ``z -> 0``, where they tend to
    ``1, tau, tau^2, tau^3``:

    ``cosh(z tau)``, ``sinh(z tau)/z``, ``tau sinh(z tau)/z``,
    ``3 (tau cosh(z tau) - sinh(z tau)/z) / z^2``.

    Derivatives are taken with respect to ``tau``; callers divide by ``h**d``
    to differentiate in ``x``.
    """
    if deriv_order not in (0, 1, 2):
        raise InvalidInputError(f"deriv_order must be 0, 1 or 2, got {deriv_order}")
    z = np.asarray(z, dtype=float)
    tau = np.asarray(tau, dtype=float)
    x = z * tau
    if np.any(np.abs(x) > EXP_ARG_LIMIT):
        raise DomainError(f"|z*tau| exceeds {EXP_ARG_LIMIT:g}")
    ch = np.cosh(x)
    sh_z = np.sinh(x) / z
    tch = tau * ch
    b1 = ch
    b2 = sh_z
    b3 = tau * sh_z
    # the closed form of the fourth function cancels badly for small z*tau
    x2 = x * x
    series = tau**3 * (1.0 + x2 * (1.0 / 10.0 + x2 * (1.0 / 280.0 + x2 * (
        1.0 / 15120.0 + x2 / 1330560.0))))
    with np.errstate(invalid="ignore", divide="ignore"):
        closed = 3.0 * (tch - sh_z) / (z * z)
    b4 = np.where(np.abs(x) < 0.1, series, closed)
    if deriv_order == 0:
        cols = (b1, b2, b3, b4)
    elif deriv_order == 1:
        cols = (z * z * b2, b1, b2 + tch, 3.0 * b3)
    else:
        z2 = z * z
        cols = (z2 * b1, z2 * b2, 2.0 * b1 + z2 * b3, 3.0 * (b2 + tch))
    return np.stack(np.broadcast_arrays(*cols), axis=-1)

