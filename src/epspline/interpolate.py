"""Collocation interpolation, cardinal basis, and Lebesgue function.

The collocation matrix holds the basis values at the interior knots. With the
unit-center normalization it has unit diagonal, and compact support makes it
tridiagonal: at knot ``i`` only functions ``i - 1``, ``i`` and ``i + 1`` are
nonzero. The fourth function evaluated there, ``i + 2`` (``i - 2`` at the
last knot), sits at an end of its support and vanishes in exact arithmetic.
Assembly stores the three diagonals and checks that every dropped value is at
most ``OUTER_BAND_RTOL`` times the matrix norm rather than dropping it
silently.

An interpolant is one row of 4 numbers per knot interval, ``pp[i] = sum_s
c[i+s-1] * table[i, s]`` (see ``GBSplineBasis.table``), formed when it is
constructed; evaluating it at a point is one dot product of that row with the
4 segment functions there.
"""

from dataclasses import dataclass, field

import numpy as np

from .banded import BandedLU, BandedMatrix, factorize
from .basis import GBSplineBasis
from .errors import BasisConstructionError, DomainError, InvalidInputError

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
    mat = BandedMatrix(n)
    values, indices = basis.active_values(basis.knots.interior)
    offset = indices - np.arange(n)[:, None]
    keep = (indices >= 0) & (indices < n) & (np.abs(offset) <= 1)
    mat.bands[1 - offset[keep], indices[keep]] = values[keep]
    outer = np.abs(np.where(keep, 0.0, values))  # slots with no function hold 0
    limit = OUTER_BAND_RTOL * mat.norm_inf()
    if outer.max() > limit:
        i, s = np.unravel_index(np.argmax(outer), outer.shape)
        raise BasisConstructionError(
            f"collocation row {i}: basis function {indices[i, s]} has value "
            f"{values[i, s]:.3g} outside the tridiagonal band (limit {limit:.3g})"
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


def _in_domain(basis: GBSplineBasis, x) -> np.ndarray:
    """``x`` as a 1-d float array, checked to lie in ``[a, b]`` (NaN does not)."""
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    if not np.all((xa >= basis.a) & (xa <= basis.b)):
        raise DomainError(f"evaluation outside [{basis.a:g}, {basis.b:g}]")
    return xa


@dataclass(frozen=True)
class Interpolant:
    """Spline interpolant: basis plus solved coefficient vector.

    At every interior knot the interpolant reproduces the data it was fitted
    to within roundoff of the collocation solve. ``pp[i]`` holds its
    coefficients on the ``i``-th knot interval in the segment basis, computed
    at construction.
    """

    basis: GBSplineBasis
    coefficients: np.ndarray
    pp: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        c = np.asarray(self.coefficients, dtype=float)
        if c.shape != (self.basis.n,):
            raise InvalidInputError(f"expected {self.basis.n} coefficients, got shape {c.shape}")
        window = np.lib.stride_tricks.sliding_window_view(np.pad(c, 1), 4)  # c[i-1 .. i+2]
        object.__setattr__(self, "pp", np.einsum("is,isk->ik", window, self.basis.table))

    def __call__(self, x):
        """Evaluate at ``x`` in ``[a, b]``; the result has the shape of ``x``."""
        i, g = self.basis._locate(_in_domain(self.basis, x))
        out = np.einsum("...k,...k->...", g, self.pp[i])
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
    """
    y = np.asarray(y, dtype=float)
    if y.shape != (basis.n,):
        raise InvalidInputError(f"expected {basis.n} data values, got shape {y.shape}")
    if not np.all(np.isfinite(y)):
        raise InvalidInputError("data values must be finite")
    if lu is None:
        lu = factorize(collocation_matrix(basis))
    return Interpolant(basis=basis, coefficients=lu.solve(y))


def cardinal_values(basis: GBSplineBasis, lu: BandedLU, x) -> np.ndarray:
    """Values of all n cardinal functions at ``x``.

    The cardinal functions interpolate the Kronecker data sets; their value
    vector at ``x`` solves the transposed collocation system against the
    sparse vector of basis values at ``x``.

    Returns shape ``(n,)`` for scalar ``x`` and ``(m, n)`` for a 1-d array.
    """
    if np.ndim(x) > 1:
        raise InvalidInputError(f"expected a scalar or a 1-d array, got shape {np.shape(x)}")
    xa = _in_domain(basis, x)
    rhs = basis_matrix(basis, xa)
    u = lu.solve(rhs, transpose=True)
    return u[:, 0] if np.ndim(x) == 0 else u.T


def lebesgue_function(basis: GBSplineBasis, lu: BandedLU, grid) -> np.ndarray:
    """Sum of absolute cardinal values at each grid point."""
    grid = np.atleast_1d(np.asarray(grid, dtype=float))
    card = cardinal_values(basis, lu, grid)
    return np.abs(card).sum(axis=1)


def lebesgue_constant(basis: GBSplineBasis, lu: BandedLU, grid) -> float:
    """Maximum of the Lebesgue function over the grid.

    Grid resolution is the caller's responsibility; 400 equispaced points on
    ``[a, b]`` is the conventional default used by the CLI.
    """
    grid = np.atleast_1d(np.asarray(grid, dtype=float))
    if grid.size == 0:
        raise InvalidInputError("empty evaluation grid")
    return float(lebesgue_function(basis, lu, grid).max())
