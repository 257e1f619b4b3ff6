"""Tridiagonal matrix storage and LU factorization without row exchanges.

The collocation matrix of the centre-normalized basis is tridiagonal, so three
diagonals are stored, in the LAPACK general-band layout with ``kl = ku = 1``:
entry ``(i, j)`` of the full matrix lives at ``bands[1 + i - j, j]``.
Elimination runs without row exchanges (``_sweep``), which is backward stable
on totally positive matrices (de Boor & Pinkus, Numer. Math. 27, 1977); every
accepted collocation matrix is one. A pivot not above ``PIVOT_RTOL`` times the
matrix norm raises ``SingularSystemError`` naming its row (``_check_pivots``),
in ``factorize`` and in the Lebesgue tables of ``interpolate`` alike.
"""

import numpy as np
from scipy.linalg import lapack

from .errors import InvalidInputError, SingularSystemError

# A pivot not above this multiple of the matrix norm counts as singular.
PIVOT_RTOL = 1e-14


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
        self.bands = np.zeros((3, n))

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


def _check_pivots(name, pivots, floor, row_of):
    """Raise ``SingularSystemError`` at the first pivot not above ``floor`` (NaN included)."""
    bad = np.flatnonzero(~(pivots > floor))
    if len(bad):
        raise SingularSystemError(
            f"collocation row {row_of(bad[0])}: {name} pivot {pivots[bad[0]]:.3g} without row "
            f"exchanges is not above {floor:.3g}, so the matrix is not totally positive")


def _sweep(diag, num, other, floor):
    """Pivots and tail sums of one elimination sweep without row exchanges.

    From a decoupled 1, ``p = diag - other * num / p_prev`` and ``t = |num /
    p_prev| * (1 + t_prev)``, on Python floats; stops after the first pivot
    not above ``floor``.
    """
    p, t = 1.0, 0.0
    pivots, tails = [p], [t]
    for a_k, y, x in zip(diag, num, other):
        r = y / p
        p, t = a_k - x * r, abs(r) * (1.0 + t)
        pivots.append(p)
        tails.append(t)
        if not p > floor:
            break
    return np.array(pivots), np.array(tails)


class BandedLU:
    """``A = L U`` without row exchanges, reusable for many solves.

    ``L`` (unit lower bidiagonal) and ``U`` (the pivots, bit for bit the
    forward pivots of the Lebesgue tables, and the superdiagonal of ``A``)
    are ``(2, n)`` bands, each solved by LAPACK ``tbtrs``. Raises
    ``SingularSystemError`` for a non-finite entry or a pivot not above
    ``PIVOT_RTOL * ||A||_inf``; every accepted collocation matrix, being
    totally positive, has positive pivots.
    """

    def __init__(self, matrix: BandedMatrix):
        norm = matrix.norm_inf()
        if not np.isfinite(norm):
            raise SingularSystemError(f"collocation matrix has a non-finite entry (norm {norm})")
        upper, diag, lower = matrix.bands
        floor = PIVOT_RTOL * norm
        # row k's entries A[k, k-1] and A[k-1, k], 0 in row 0
        below, above = np.append(0.0, lower[:-1]), np.append(0.0, upper[1:])
        d, _ = _sweep(diag.tolist(), below.tolist(), above.tolist(), floor)
        _check_pivots("forward", d[1:], floor, lambda j: j)
        self.n = matrix.n
        self._lower = np.stack([np.ones(self.n), np.append(below[1:] / d[1:-1], 0.0)])
        self._upper = np.stack([above, d[1:]])

    def solve(self, b, transpose: bool = False) -> np.ndarray:
        """Solve ``A x = b`` (or ``A^T x = b``); ``b`` may hold several RHS columns."""
        b = np.asarray(b, dtype=float)
        if b.shape[0] != self.n:
            raise InvalidInputError(f"rhs has leading dimension {b.shape[0]}, expected {self.n}")
        if b.size == 0:
            return b.copy()  # scipy's tbtrs crashes the interpreter on zero right-hand sides
        factors = [(self._lower, "L", "U"), (self._upper, "U", "N")]
        x = b
        for band, uplo, unit in factors[::-1] if transpose else factors:
            x, info = lapack.dtbtrs(band, x, uplo=uplo, trans="T" if transpose else "N",
                                    diag=unit)
            if info != 0:
                raise ValueError(f"dtbtrs failed with info={info}")
        return x


def factorize(matrix: BandedMatrix) -> BandedLU:
    """Factor once; reuse for fits of many data vectors."""
    return BandedLU(matrix)
