"""Collocation interpolation, cardinal basis, and Lebesgue function.

The collocation matrix holds the basis values at the interior knots. With the
unit-center normalization it has unit diagonal, and compact support makes it
tridiagonal: at knot ``i`` only functions ``i - 1``, ``i`` and ``i + 1`` are
nonzero. The fourth function alive there, ``i + 2`` (``n - 3`` at the last
knot), sits at an end of its support and vanishes in exact arithmetic. Knot
``i < n - 1`` starts interval ``i``, where the segment functions are ``(1, 0,
0, 0)``, so its row is ``table[i, :, 0]``; the last row is evaluated at ``b``.
Assembly keeps the three diagonals and checks that every dropped value is at
most ``OUTER_BAND_RTOL`` times the matrix norm rather than dropping it
silently.

An interpolant is one row of 4 numbers per knot interval, ``pp[i] = sum_s
c[i+s-1] * table[i, s]`` (see ``GBSplineBasis.table``), formed when it is
constructed; evaluating it at a point is one dot product of that row with the
4 segment functions there.

The Lebesgue function is ``||R[i] @ g(x)||_1`` with ``R[i] = S[i] @ table[i]``
and ``S[i]`` one 4x4 table per knot interval, read in O(n) from the
factorization ``fit`` solves with (``BandedLU.lebesgue_tables``): the
cardinal vector at x solves ``Aᵀ u = β(x)``, whose right side lives on the 4
functions of the interval, and outside them u is a geometric tail of its end
entries (the inverse of a tridiagonal matrix has rank-one off-diagonal
blocks; Meurant, SIAM J. Matrix Anal. Appl. 13, 1992). It is applied as
``S[i] @ β(x)``, the basis values first: at a knot they are then the
collocation row itself, rounding included, so Λ = 1 there to the accuracy of
the solve. Forming ``R[i]`` first would round differently where the
contraction with g cancels heavily, at the right end of an interval with a
large α·h. The Lebesgue function solves nothing; ``cardinal_values`` keeps
the transposed solve and is the reference.
"""

from dataclasses import dataclass, field

import numpy as np

from .banded import BandedLU, BandedMatrix, factorize
from .basis import GBSplineBasis
from .errors import BasisConstructionError, DomainError, InvalidInputError, check_values

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
    rows = basis.table[:, :, 0]  # at knot i < n - 1: functions i - 1 .. i + 2
    last = basis.active_values(basis.b)[0]  # at knot n - 1: functions n - 3 .. n
    mat = BandedMatrix(np.append(rows[1:, 0], last[1]), np.append(rows[:, 1], last[2]),
                       rows[:, 2])
    outer = np.abs(np.append(rows[:, 3], last[0]))  # function i + 2 at row i, n - 3 at n - 1
    limit = OUTER_BAND_RTOL * mat.norm_inf()
    if outer.max() > limit:
        i = int(np.argmax(outer))
        j, value = (i + 2, rows[i, 3]) if i < n - 1 else (n - 3, last[0])
        raise BasisConstructionError(
            f"collocation row {i}: basis function {j} has value "
            f"{value:.3g} outside the tridiagonal band (limit {limit:.3g})"
        )
    return mat


def basis_matrix(basis: GBSplineBasis, x) -> np.ndarray:
    """Dense (n, m) matrix of all basis functions evaluated at points ``x``."""
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    values, indices = basis.active_values(xa)
    out = np.zeros((basis.n, len(xa)))
    cols = np.repeat(np.arange(len(xa)), 4)
    rows = indices.ravel()
    keep = (rows >= 0) & (rows < basis.n)
    out[rows[keep], cols[keep]] = values.ravel()[keep]
    return out


@dataclass(frozen=True)
class Interpolant:
    """Spline interpolant: basis plus solved coefficient vector.

    At every interior knot the interpolant reproduces the data it was fitted
    to within roundoff of the collocation solve. ``pp[i]`` holds its
    coefficients on the ``i``-th knot interval in the segment basis, computed
    at construction. Data so large that ``pp`` is not finite raises
    ``DomainError`` there, and so does a value that overflows at a point.
    """

    basis: GBSplineBasis
    coefficients: np.ndarray
    pp: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        c = np.asarray(self.coefficients, dtype=float)
        if c.shape != (self.basis.n,):
            raise InvalidInputError(f"expected {self.basis.n} coefficients, got shape {c.shape}")
        window = np.lib.stride_tricks.sliding_window_view(np.pad(c, 1), 4)  # c[i-1 .. i+2]
        # einsum raises no floating-point warning: an overflow shows only as a non-finite value
        pp = np.einsum("is,isk->ik", window, self.basis.table)
        bad = np.flatnonzero(~np.isfinite(pp).all(axis=1))
        if len(bad):
            raise DomainError(f"interpolant not finite on knot interval {bad[0]} (largest "
                              f"coefficient magnitude {np.abs(c).max():.3g})")
        object.__setattr__(self, "pp", pp)

    def __call__(self, x):
        """Evaluate at ``x`` in ``[a, b]``; the result has the shape of ``x``."""
        xa = np.atleast_1d(x)
        i, g = self.basis._locate(xa)
        out = np.einsum("...k,...k->...", g, self.pp[i])
        if not np.all(np.isfinite(out)):
            raise DomainError(f"interpolant not finite at x = {float(xa[~np.isfinite(out)][0])!r}")
        return out if np.ndim(x) else float(out[0])


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
    """Sum of absolute cardinal values at each grid point.

    Computed as ``||S[i] @ β(x)||_1`` from the basis values ``β(x)`` of
    ``basis.active_values`` and one 4x4 table per knot interval, read from
    the factorization of the collocation matrix (``BandedLU.lebesgue_tables``),
    in O(n + m) for m points; it solves nothing and forms no n x m array. It
    agrees with ``sum |cardinal_values|`` up to rounding.

    Raises
    ------
    SingularSystemError
        If elimination without row exchanges on the collocation matrix meets a
        pivot not above ``banded.PIVOT_RTOL`` times its norm.
    """
    _check_1d(grid)
    interval, beta = _located_values(basis, np.atleast_1d(grid))
    tables = factorize(collocation_matrix(basis)).lebesgue_tables()
    return _lebesgue_from_tables(tables, interval, beta)


def _lebesgue_from_tables(tables, interval, beta) -> np.ndarray:
    """``||S[i] @ β||_1`` per point, from ``BandedLU.lebesgue_tables`` and each
    point's interval ``i`` and basis values ``β``, as from ``_located_values``."""
    # np.take: a fancy index of the rows costs twice as much
    return np.abs(np.einsum("prs,ps->pr", np.take(tables, interval, axis=0), beta)).sum(axis=1)


def _located_values(basis: GBSplineBasis, x):
    """The interval index and the ``active_values`` of each point."""
    beta, indices = basis.active_values(x)
    return indices[:, 0] + 1, beta


def lebesgue_constant(basis: GBSplineBasis, grid) -> float:
    """Maximum of the Lebesgue function over the grid.

    Grid resolution is the caller's responsibility; 400 equispaced points on
    ``[a, b]`` is the conventional default used by the CLI.
    """
    grid = np.atleast_1d(np.asarray(grid, dtype=float))
    if grid.size == 0:
        raise InvalidInputError("empty evaluation grid")
    return float(lebesgue_function(basis, grid).max())
