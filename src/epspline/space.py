"""Four-dimensional exponential segment space and its pointwise evaluation.

Every spline segment produced by this package lives in the span of the four
generators ``exp(a*t)``, ``t*exp(a*t)``, ``exp(-a*t)``, ``t*exp(-a*t)`` for a
fixed rate ``a > 0``, always evaluated in segment-local coordinates so the
exponents stay small.

Evaluation is one pass over many points: ``segment_basis_eval`` returns the
four segment functions function-first, one contiguous array each, and
``segment_combination`` multiplies them by coefficients gathered in the same
layout and sums the four products in one fixed order. Every evaluator of a
basis or an interpolant goes through these two, with the segment functions
of ``GBSplineBasis._search``, held by ``_locate`` or carried by a greedy.
They are values only: ``build_basis`` forms the derivatives it needs at
``tau = 1`` from their ``cosh`` and ``sinh``.
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


def segment_basis_eval(z, tau) -> np.ndarray:
    """Well-conditioned basis of one segment in normalized coordinates.

    A segment of length ``h`` with rate ``alpha`` is parameterized by
    ``tau = (x - left) / h`` in [0, 1] and ``z = alpha * h``. The four
    functions span the same space as the raw exponential generators but stay
    numerically independent as ``z -> 0``, where they tend to
    ``1, tau, tau^2, tau^3``:

    ``cosh(z tau)``, ``sinh(z tau)/z``, ``tau sinh(z tau)/z``,
    ``3 (tau cosh(z tau) - sinh(z tau)/z) / z^2``.

    The result is function-first: shape ``(4,) + broadcast(z, tau).shape``,
    each function one contiguous array. The fourth function is a series where
    ``|z tau| < 0.1``, where the closed form cancels, and the closed form
    elsewhere; each is computed only if some point needs it.
    """
    z = np.asarray(z, dtype=float)
    tau = np.asarray(tau, dtype=float)
    x = z * tau
    if np.any(np.abs(x) > EXP_ARG_LIMIT):
        raise DomainError(f"|z*tau| exceeds {EXP_ARG_LIMIT:g}")
    out = np.empty((4,) + x.shape)
    b1, b2, b3, b4 = (out[k, ...] for k in range(4))  # views, 0-d for scalar z and tau
    np.cosh(x, out=b1)
    np.sinh(x, out=b2)
    b2 /= z
    np.multiply(tau, b2, out=b3)
    small = np.abs(x) < 0.1
    if small.any():
        # the series in x^2 by Horner; tau**3 through np.power, as tau*tau*tau rounds otherwise
        x2 = x * x
        np.divide(x2, 1330560.0, out=b4)
        for c in (1.0 / 15120.0, 1.0 / 280.0, 1.0 / 10.0):
            b4 += c
            b4 *= x2
        b4 += 1.0
        b4 *= np.power(tau, 3)
    if not small.all():
        with np.errstate(invalid="ignore", divide="ignore"):
            closed = tau * b1
            closed -= b2
            closed *= 3.0
            closed /= z * z
        np.copyto(b4, closed, where=~small)
    return out


def segment_combination(coef, g) -> np.ndarray:
    """The sum over ``k`` of ``coef[k] * g[k]``: the segment functions ``g`` combined by ``coef``.

    Both are function-first, ``g`` as ``segment_basis_eval`` returns it;
    ``g`` broadcasts against ``coef``, and the products are formed in place
    in ``coef``, which the caller passes fresh. The sum is ``(q0 + q2) + (q1
    + q3)``, the order of numpy's ``einsum`` on a contiguous length-4 axis.
    Like ``einsum`` it raises no floating-point warning: an overflow shows
    only as a non-finite value.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        coef *= g
        out = coef[0] + coef[2]
        coef[1] += coef[3]
        out += coef[1]
    return out
