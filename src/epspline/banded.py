"""Tridiagonal matrix storage and LU factorization without row exchanges.

The collocation matrix of the centre-normalized basis is tridiagonal, so it is
stored as its three diagonals, ``lower``, ``diag`` and ``upper``.
Elimination runs without row exchanges (``_sweep``), which is backward stable
on totally positive matrices (de Boor & Pinkus, Numer. Math. 27, 1977). The
collocation matrix is one in exact arithmetic, but not always in floating
point: an off-diagonal entry that is tiny there can round below zero, to
-8.1 eps e^z ||A||_inf at worst over 34 000 random accepted bases (gaps 1e-10
to 1 apart, z = alpha * largest gap up to 30), and to -2.8e-7 near z = 20.
So the test is on the pivots, not on the entries.
``BandedLU`` keeps its pivots once per matrix, and ``fit``'s solves and the
Lebesgue function both read them; a pivot not above ``PIVOT_RTOL`` times the
matrix norm raises ``SingularSystemError`` naming its row.
"""

import numpy as np
from scipy.linalg import lapack

from .errors import InvalidInputError, SingularSystemError, as_real_array
from .space import segment_combination

# A pivot not above this multiple of the matrix norm counts as singular.
PIVOT_RTOL = 1e-14


class BandedMatrix:
    """Square tridiagonal matrix of order ``n`` from copies of its three diagonals:
    ``lower[i] = A[i + 1, i]``, ``diag[i] = A[i, i]`` and ``upper[i] = A[i, i + 1]``."""

    def __init__(self, lower, diag, upper):
        self.lower, self.diag, self.upper = (np.array(as_real_array("diagonals", v))
                                             for v in (lower, diag, upper))
        self.n = self.diag.size  # n = 0 leaves no shape (n - 1,) to match
        if self.diag.ndim != 1 or not self.lower.shape == self.upper.shape == (self.n - 1,):
            raise InvalidInputError(f"bad tridiagonal diagonals: shapes {self.lower.shape}, "
                                    f"{self.diag.shape} and {self.upper.shape}")

    def to_dense(self) -> np.ndarray:
        a = np.diag(self.diag)
        a.flat[1::self.n + 1] = self.upper
        a.flat[self.n::self.n + 1] = self.lower
        return a

    def norm_inf(self) -> float:
        """Maximum absolute row sum."""
        sums = np.abs(self.diag)
        sums[:-1] += np.abs(self.upper)
        sums[1:] += np.abs(self.lower)
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

    Keeps the forward sweep's pivots after a leading 1, its tail sums and the
    pivot floor ``PIVOT_RTOL * ||A||_inf``. Each ``solve`` forms ``L`` (unit
    lower bidiagonal) and ``U`` (the pivots and the superdiagonal of ``A``)
    from them as ``(2, n)`` bands for LAPACK ``tbtrs``. A non-finite entry, or
    a pivot here or in ``lebesgue_tables`` not above the floor, raises
    ``SingularSystemError``, so every accepted matrix has positive pivots.
    """

    def __init__(self, matrix: BandedMatrix):
        norm = matrix.norm_inf()
        if not np.isfinite(norm):
            raise SingularSystemError(f"collocation matrix has a non-finite entry (norm {norm})")
        self.n, self._floor, self._diag = matrix.n, PIVOT_RTOL * norm, matrix.diag.tolist()
        # M[k, k + 1] = A[k, k-1] and M[k + 1, k] = A[k-1, k], 0 at k = 0 and n
        self._sup = np.concatenate(([0.0], matrix.lower, [0.0]))
        self._sub = np.concatenate(([0.0], matrix.upper, [0.0]))
        d, self._tails = _sweep(self._diag, self._sup.tolist(), self._sub.tolist(), self._floor)
        _check_pivots("forward", d[1:], self._floor, lambda j: j)
        self._pivots = d

    def lebesgue_tables(self) -> np.ndarray:
        """``S``, ``(4, 4, n - 1)``: ``Λ(x) = Σ_r |Σ_s S[s, r, i] β_s(x)|`` on interval i.

        ``β(x)`` holds the values at x of the 4 functions alive on interval
        ``i``. Works on ``M = Aᵀ`` padded with a decoupled 1 at each end, so
        that index ``k + 1`` is basis function ``k`` and interval ``i`` owns
        the 4-row window ``i .. i + 3``; adds a backward sweep to the forward.
        """
        w, floor, sup, sub = self.n - 1, self._floor, self._sup, self._sub
        d, sl = self._pivots, self._tails
        # forward (d) and backward (e) pivots; SL[k] = sum over j < k of |u_j /
        # u_k|, where u solves M u = β for any β that is zero below k (u_j =
        # -sup[j] / d[j] * u_{j+1} there), and SR[k] the same above k
        e, sr = _sweep(self._diag[::-1], sub[:0:-1].tolist(), sup[:0:-1].tolist(), floor)
        _check_pivots("backward", e[1:], floor, lambda j: w - j)
        e, sr = np.append(1.0, e[::-1]), np.append(0.0, sr[::-1])
        twisted = e[1:] - sub * sup / d  # the last pivot of a window ending at k + 1
        _check_pivots("twisted", twisted[:-1], floor, lambda j: j)
        # The 4x4 block of M⁻¹ on window i inverts M's window with its corners
        # replaced by d[i] and e[i + 3]; its Thomas pivots are d[i], d[i + 1],
        # d[i + 2] and twisted[i + 2]. Invert it, all i at once.
        piv = [d[:w], d[1:w + 1], d[2:w + 2], twisted[2:w + 2]]
        y = np.broadcast_to(np.eye(4)[:, :, None], (4, 4, w)).copy()  # y[s, r, i]
        for r in range(1, 4):
            y[:, r] -= sub[r - 1:r - 1 + w] / piv[r - 1] * y[:, r - 1]
        y[:, 3] /= piv[3]
        for r in range(2, -1, -1):
            y[:, r] = (y[:, r] - sup[r:r + w] * y[:, r + 1]) / piv[r]
        # the cardinal entries outside the window are the end rows' times the tail sums
        y[:, 0] *= 1.0 + sl[:w]
        y[:, 3] *= 1.0 + sr[3:w + 3]
        return y

    def lebesgue(self, interval, values) -> np.ndarray:
        """``Λ = Σ_r |Σ_s S[s, r, i] β_s|`` at each point, with ``S = lebesgue_tables()`` and
        each point's ``(interval i, values β)`` from ``GBSplineBasis.active_values``. The
        tables are 16 rows ``S[s, r]`` gathered by interval; the sums over ``s`` and then
        ``r`` run in the orders of ``einsum("prs,ps->pr", ...)`` and ``.sum(axis=1)``."""
        rows = np.abs(segment_combination(np.take(self.lebesgue_tables(), interval, axis=2),
                                          values[:, None]))
        return rows[0] + rows[1] + rows[2] + rows[3]

    def solve(self, b, transpose: bool = False) -> np.ndarray:
        """Solve ``A x = b`` (or ``A^T x = b``); ``b`` may hold several RHS columns."""
        b = as_real_array("rhs", b)
        if b.shape[:1] != (self.n,):
            raise InvalidInputError(f"rhs of shape {b.shape}, expected leading dimension {self.n}")
        if b.size == 0:
            return b.copy()  # scipy's tbtrs crashes the interpreter on zero right-hand sides
        d = self._pivots
        lower = np.stack([np.ones(self.n), np.append(self._sup[1:-1] / d[1:-1], 0.0)])
        factors = [(lower, "L", "U"), (np.stack([self._sub[:-1], d[1:]]), "U", "N")]
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
