"""Collocation interpolation, cardinal basis, and Lebesgue function.

The collocation matrix holds the basis values at the interior knots. With the
unit-center normalization it has unit diagonal, and compact support makes it
tridiagonal: at knot ``i`` only functions ``i - 1``, ``i`` and ``i + 1`` are
nonzero. The fourth function alive there, ``i + 2`` (``n - 3`` at the last
knot), sits at an end of its support and vanishes in exact arithmetic. Knot
``i < n - 1`` starts interval ``i``, where the segment functions are ``(1, 0,
0, 0)``, so its row is ``table[0, :, i]``. The last knot ends interval ``n -
2``: its row is ``active_values(b)``, the segment functions at ``tau = 1``
there combined with ``table[:, :, n - 2]``.
Assembly keeps the three diagonals and checks that every dropped value is at
most ``OUTER_BAND_RTOL`` times the matrix norm rather than dropping it
silently.

An interpolant is 4 numbers per knot interval, ``pp[:, i] = sum_s c[i+s-1]
* table[:, s, i]``, formed when it is constructed and interval-last like
``GBSplineBasis.table``. Evaluating it is one pass over all points: one
``np.take`` gathers the columns of the points' intervals function-first,
one contiguous array per segment function, and ``space.segment_combination``
sums the four products of each point as ``(q0 + q2) + (q1 + q3)``, the order
in which numpy's ``einsum`` sums a contiguous length-4 axis.

The Lebesgue function is ``||S_i T_i g(x)||_1``, with ``T_i[s, k] = table[k,
s, i]`` and ``S_i[r, s] = S[s, r, i]`` one 4x4 table per knot interval, ``S``
read in O(n) from the factorization ``fit`` solves with
(``BandedLU.lebesgue_tables``): the cardinal vector at x solves ``Aᵀ u =
β(x)``, whose right side lives on the 4 functions of the interval, and
outside them u is a geometric tail of its end entries (the inverse of a
tridiagonal matrix has rank-one off-diagonal blocks; Meurant, SIAM J.
Matrix Anal. Appl. 13, 1992). It is applied as ``S_i β(x)``, the basis
values first, by ``BandedLU.lebesgue`` from the ``(interval, values)`` that
``active_values`` gives, the values function-first: at a knot they are then
the collocation row itself, rounding included, so Λ = 1 there to the
accuracy of the solve. It gathers ``S``, 16 rows of length n - 1, and sums
in the orders of a point-major ``einsum`` and ``.sum``, with their bits.
Forming ``S_i T_i`` first would round differently where the contraction
with g cancels heavily, at the right end of an interval with a large α·h.
The Lebesgue function solves nothing; ``cardinal_values`` keeps the
transposed solve and is the reference.
"""

from dataclasses import dataclass, field

import numpy as np

from .banded import BandedLU, BandedMatrix, factorize
from .basis import GBSplineBasis
from .errors import (BasisConstructionError, DomainError, InvalidInputError, check_grid,
                     check_values)
from .space import segment_combination

# A basis value outside the three diagonals above this multiple of the
# collocation matrix norm means the basis does not vanish at its support ends.
OUTER_BAND_RTOL = 1e-10

__all__ = [
    "BandedMatrix",
    "BandedLU",
    "factorize",
    "collocation_matrix",
    "Interpolant",
    "fit",
    "cardinal_values",
    "lebesgue_function",
    "lebesgue_constant",
]


def collocation_matrix(basis: GBSplineBasis) -> BandedMatrix:
    """Tridiagonal matrix of basis-function values at the interior knots.

    Raises
    ------
    BasisConstructionError
        If a basis value outside the three diagonals exceeds
        ``OUTER_BAND_RTOL`` times the infinity norm of the matrix.
    """
    n = basis.n
    rows = basis.table[0]  # rows[s, i]: function i + s - 1 at knot i < n - 1, where tau = 0
    last = basis.active_values(basis.b)[1]  # at knot n - 1: functions n - 3 .. n
    mat = BandedMatrix(np.append(rows[0, 1:], last[1]), np.append(rows[1], last[2]), rows[2])
    outer = np.abs(np.append(rows[3], last[0]))  # function i + 2 at row i, n - 3 at n - 1
    limit = OUTER_BAND_RTOL * mat.norm_inf()
    if outer.max() > limit:
        i = int(np.argmax(outer))
        j, value = (i + 2, rows[3, i]) if i < n - 1 else (n - 3, last[0])
        raise BasisConstructionError(
            f"collocation row {i}: basis function {j} has value "
            f"{value:.3g} outside the tridiagonal band (limit {limit:.3g})"
        )
    return mat


def basis_matrix(basis: GBSplineBasis, x) -> np.ndarray:
    """Dense (n, m) matrix of all basis functions evaluated at points ``x``; m = 1 for a scalar."""
    interval, values = basis.active_values(x)
    m = np.size(interval)
    out = np.zeros((basis.n, m))
    cols = np.tile(np.arange(m), 4)
    rows = (np.arange(-1, 3)[:, None] + np.reshape(interval, -1)).ravel()
    keep = (rows >= 0) & (rows < basis.n)
    out[rows[keep], cols[keep]] = values.ravel()[keep]
    return out


@dataclass(frozen=True)
class Interpolant:
    """Spline interpolant: basis plus solved coefficient vector.

    At every interior knot the interpolant reproduces the data it was fitted
    to within roundoff of the collocation solve. ``pp[k, i]``, shape ``(4, n -
    1)``, multiplies the ``k``-th segment function on knot interval ``i``; it is
    computed at construction. Data so large that ``pp`` is not finite raises
    ``DomainError`` there, and so does a value that overflows at a point.
    """

    basis: GBSplineBasis
    coefficients: np.ndarray
    pp: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        c = np.asarray(self.coefficients, dtype=float)
        if c.shape != (self.basis.n,):
            raise InvalidInputError(f"expected {self.basis.n} coefficients, got shape {c.shape}")
        window = np.lib.stride_tricks.sliding_window_view(np.concatenate(([0.0], c, [0.0])), 4)
        # window[i] is c[i-1 .. i+2]; einsum warns of no overflow, which shows as a non-finite pp
        pp = np.einsum("is,ksi->ki", window, self.basis.table)
        bad = np.flatnonzero(~np.isfinite(pp).all(axis=0))
        if len(bad):
            raise DomainError(f"interpolant not finite on knot interval {bad[0]} (largest "
                              f"coefficient magnitude {np.abs(c).max():.3g})")
        object.__setattr__(self, "pp", pp)

    def __call__(self, x):
        """Evaluate at ``x`` in ``[a, b]``; the result has the shape of ``x``."""
        i, g = self.basis._locate(x)
        out = segment_combination(np.take(self.pp, i, axis=1), g)
        if not np.all(np.isfinite(out)):
            bad = np.asarray(x, dtype=float)[~np.isfinite(out)]
            raise DomainError(f"interpolant not finite at x = {float(bad[0])!r}")
        return out if np.ndim(x) else float(out)


def fit(basis: GBSplineBasis, y, lu: BandedLU | None = None) -> Interpolant:
    """Solve the collocation system for the coefficients interpolating ``y``.

    Parameters
    ----------
    basis : GBSplineBasis
    y : array_like
        Finite data values at the interior knots, length ``n``.
    lu : BandedLU, optional
        Reuse an existing factorization of the collocation matrix.

    The collocation matrix must have pivots without row exchanges above
    ``banded.PIVOT_RTOL`` times its norm, as every accepted one has.
    """
    y = check_values("data values", y, basis.n)
    if lu is None:
        lu = factorize(collocation_matrix(basis))
    return Interpolant(basis=basis, coefficients=lu.solve(y))


def _check_1d(x):
    if np.ndim(x) > 1:
        raise InvalidInputError(f"expected a scalar or a 1-d array, got shape {np.shape(x)}")


def cardinal_values(basis: GBSplineBasis, x) -> np.ndarray:
    """Values of all n cardinal functions at ``x``.

    The cardinal functions interpolate the Kronecker data sets; their value
    vector at ``x`` solves the transposed collocation system, factored afresh
    on every call, against the sparse vector of basis values at ``x``.

    Returns shape ``(n,)`` for scalar ``x`` and ``(m, n)`` for a 1-d array.
    """
    _check_1d(x)
    values = basis_matrix(basis, x)  # a point outside [a, b] raises before any factoring
    u = factorize(collocation_matrix(basis)).solve(values, transpose=True)
    return u[:, 0] if np.ndim(x) == 0 else u.T


def lebesgue_function(basis: GBSplineBasis, grid) -> np.ndarray:
    """Sum of absolute cardinal values at each grid point; shape ``(1,)`` for a scalar.

    Computed as ``||S_i β(x)||_1`` by ``BandedLU.lebesgue`` from the
    interval ``i`` and basis values ``β(x)`` of ``basis.active_values`` and
    one 4x4 table per knot interval, read from the factorization of the
    collocation matrix, in O(n + m) for m points; it solves nothing and forms
    no n x m array. It agrees with ``sum |cardinal_values|`` up to rounding.

    Raises
    ------
    SingularSystemError
        If elimination without row exchanges on the collocation matrix meets a
        pivot not above ``banded.PIVOT_RTOL`` times its norm.
    """
    _check_1d(grid)
    interval, values = basis.active_values(grid)  # outside [a, b] raises first
    return np.atleast_1d(factorize(collocation_matrix(basis)).lebesgue(interval, values))


def lebesgue_constant(basis: GBSplineBasis, grid) -> float:
    """Maximum of the Lebesgue function over the grid.

    Grid resolution is the caller's responsibility; 400 equispaced points on
    ``[a, b]`` is the conventional default used by the CLI.
    """
    return float(lebesgue_function(basis, check_grid(grid)).max())
