"""Tridiagonal matrix storage and LU factorization with partial pivoting.

The collocation matrix of the centre-normalized basis is tridiagonal, so three
diagonals are stored, in the LAPACK general-band layout with ``kl = ku = 1``:
entry ``(i, j)`` of the full matrix lives at ``bands[1 + i - j, j]``.
Factorization and solves are delegated to the LAPACK ``gbtrf`` / ``gbtrs``
pair, which performs banded LU with partial pivoting. The tridiagonal pair
``gttrf`` / ``gttrs`` is not used: scipy's ``dgttrf`` wrapper rejects n <= 2,
and two-node sets are legal input.
"""

import numpy as np
from scipy.linalg import lapack

from .errors import InvalidInputError, SingularSystemError

# A pivot below this multiple of the matrix norm counts as singular.
PIVOT_RTOL = 1e-14

# lower and upper bandwidths of a tridiagonal matrix
KL = KU = 1


class BandedMatrix:
    """Square tridiagonal matrix.

    ``bands[0, 1:]`` holds the superdiagonal, ``bands[1]`` the diagonal and
    ``bands[2, :-1]`` the subdiagonal; ``bands[0, 0]`` and ``bands[2, -1]``
    lie outside the matrix and stay unused.
    """

    def __init__(self, n: int):
        if n < 1:
            raise InvalidInputError(f"bad tridiagonal size n={n}")
        self.n = n
        self.bands = np.zeros((KL + KU + 1, n))

    def to_dense(self) -> np.ndarray:
        upper, diag, lower = self.bands
        a = np.diag(diag)
        a.flat[1::self.n + 1] = upper[1:]
        a.flat[self.n::self.n + 1] = lower[:-1]
        return a

    def norm_inf(self) -> float:
        """Maximum absolute row sum."""
        upper, sums, lower = np.abs(self.bands)
        sums[:-1] += upper[1:]
        sums[1:] += lower[:-1]
        return float(sums.max())


class BandedLU:
    """LU factorization of a BandedMatrix, reusable for many solves.

    Only solves need it: the Lebesgue function works on the matrix itself.
    """

    def __init__(self, matrix: BandedMatrix):
        n = matrix.n
        norm = matrix.norm_inf()
        if not np.isfinite(norm):
            raise SingularSystemError(f"collocation matrix has a non-finite entry (norm {norm})")
        # gbtrf needs KL extra superdiagonal rows for pivoting fill-in
        ab = np.zeros((2 * KL + KU + 1, n))
        ab[KL:, :] = matrix.bands
        lu, ipiv, info = lapack.dgbtrf(ab, KL, KU)
        if info < 0:
            raise ValueError(f"illegal argument {-info} passed to dgbtrf")
        if info > 0:
            raise SingularSystemError(
                f"collocation matrix is exactly singular (zero pivot at {info - 1})"
            )
        pivot_floor = PIVOT_RTOL * norm
        diag_u = np.abs(lu[KL + KU, :])
        if not diag_u.min() >= pivot_floor:
            raise SingularSystemError(
                f"collocation matrix is singular to working precision "
                f"(pivot {diag_u.min():.3g} below {pivot_floor:.3g})"
            )
        self.n = n
        self._lu = lu
        self._ipiv = ipiv

    def solve(self, b, transpose: bool = False) -> np.ndarray:
        """Solve ``A x = b`` (or ``A^T x = b``); ``b`` may hold several RHS columns."""
        b = np.asarray(b, dtype=float)
        if b.shape[0] != self.n:
            raise InvalidInputError(f"rhs has leading dimension {b.shape[0]}, expected {self.n}")
        x, info = lapack.dgbtrs(self._lu, KL, KU, b, self._ipiv,
                                trans=1 if transpose else 0)
        if info != 0:
            raise ValueError(f"dgbtrs failed with info={info}")
        return x


def factorize(matrix: BandedMatrix) -> BandedLU:
    """Factor once; reuse for fits of many data vectors."""
    return BandedLU(matrix)
