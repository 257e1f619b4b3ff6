"""Stability and error diagnostics for collocation interpolation.

κ₂ and sparsity of a ``BandedMatrix`` come from its three diagonals, never
from a dense matrix; any other matrix goes through a dense SVD and count. The
banded κ₂ comes from the extreme eigenvalues of AᵀA, about eps·κ₂² relative
off; above ``GRAM_COND2_MAX`` its σ_min comes from [[0, A], [Aᵀ, 0]] instead,
about eps·κ₂ relative off. The error-bound checker validates the pointwise
inequality ``|f - I(x)| <= (1 + lebesgue(x)) * best_sup_error``, taking the
best in-span sup-norm error as the exact discrete minimax, a linear program on
2001 points.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigvals_banded

from .banded import BandedMatrix
from .errors import InvalidInputError, SplineError, check_values
from .interpolate import Interpolant, basis_matrix, lebesgue_function

SPARSITY_TOL = 1e-14
PROXY_GRID_SIZE = 2001  # points of the discrete minimax problem
BOUND_SLACK = 0.05  # relative slack on the right-hand side of the error bound
# κ₂ up to which a banded cond2 takes σ_min from AᵀA, where its relative error,
# measured at 0.1-0.5·eps·κ₂², stays below 1e-13
GRAM_COND2_MAX = 20.0


def _as_dense(matrix) -> np.ndarray:
    if isinstance(matrix, BandedMatrix):
        return matrix.to_dense()
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2:
        raise InvalidInputError(f"expected a matrix, got shape {a.shape}")
    return a


def _scaled_diagonals(matrix: BandedMatrix):
    """``lower``, ``diag`` and ``upper`` times the power of two that brings the
    largest entry into [0.5, 1), or None if that entry is zero or not finite."""
    diagonals = (matrix.lower, matrix.diag, matrix.upper)
    peak = np.abs(np.concatenate(diagonals)).max()
    if not 0.0 < peak < np.inf:
        return None
    return tuple(np.ldexp(v, -np.frexp(peak)[1]) for v in diagonals)


def _interleaved_eigenvalue(diagonals, k: int) -> float:
    """Eigenvalue k, ascending, of [[0, A], [Aᵀ, 0]], which are ±σ_i, so σ_min at
    k = n; with rows and columns interleaved it is an upper band with kd = 3."""
    lower, diag, upper = diagonals
    jw = np.zeros((4, 2 * diag.size))
    jw[2, 1::2], jw[2, 2::2], jw[0, 3::2] = diag, lower, upper
    return eigvals_banded(jw, select="i", select_range=(k, k))[0]


def _banded_extreme_singular_values(matrix: BandedMatrix):
    """σ_max and σ_min of the scaled diagonals, both from AᵀA up to κ₂ =
    ``GRAM_COND2_MAX``; above it σ_min comes from the interleaved form."""
    diagonals = _scaled_diagonals(matrix)
    if diagonals is None:  # zero, or a non-finite entry: cond2 says inf
        return 0.0, 0.0
    # the power-of-two scaling keeps the squares clear of under- and overflow
    (lower, diag, upper), n = diagonals, matrix.n
    gram = np.zeros((3, n))  # AᵀA, upper band with kd = 2
    gram[2] = np.append(0.0, upper ** 2) + diag ** 2 + np.append(lower ** 2, 0.0)
    gram[1, 1:] = diag[:-1] * upper + lower * diag[1:]
    gram[0, 2:] = lower[:-1] * upper[1:]
    s_max2, s_min2 = (eigvals_banded(gram, select="i", select_range=(k, k))[0] for k in (n - 1, 0))
    if s_min2 * GRAM_COND2_MAX ** 2 < s_max2:
        return np.sqrt(s_max2), _interleaved_eigenvalue(diagonals, n)
    return np.sqrt(s_max2), np.sqrt(s_min2)


def cond2(matrix) -> float:
    """Spectral condition number: ratio of extreme singular values.

    For a ``BandedMatrix``, σ_max² and σ_min² are the extreme eigenvalues of
    the banded AᵀA, each from one LAPACK ``sbevx`` call in O(n²). σ_min² is
    then off by about eps·κ₂² relative, under 1e-13 while κ₂ is at most
    ``GRAM_COND2_MAX``; above it σ_min is eigenvalue n of the banded
    [[0, A], [Aᵀ, 0]] (Golub & Kahan, 1965), a third call, within a small
    multiple of eps·κ₂ relative of a dense SVD. Returns ``inf`` for a
    non-finite entry, or when σ_min is at most ``n * eps * σ_max``.
    """
    if isinstance(matrix, BandedMatrix):
        n, (s_max, s_min) = matrix.n, _banded_extreme_singular_values(matrix)
    else:
        a = _as_dense(matrix)
        n = a.shape[0]
        if a.shape[1] != n:
            raise InvalidInputError("condition number needs a square matrix")
        try:
            s = np.linalg.svd(a, compute_uv=False)
        except np.linalg.LinAlgError:
            return float("inf")
        s_max, s_min = s[0], s[-1]
    if not s_min > s_max * np.finfo(float).eps * n:  # also NaN, from a non-finite entry
        return float("inf")
    return float(s_max / s_min)


def skeel_condition(matrix) -> float:
    """Row-scaling-invariant condition number ``|| |A^-1| |A| ||_inf``."""
    a = _as_dense(matrix)
    if a.shape[0] != a.shape[1]:
        raise InvalidInputError("condition number needs a square matrix")
    try:
        inv = np.linalg.inv(a)
    except np.linalg.LinAlgError:
        return float("inf")
    return float(np.abs(np.abs(inv) @ np.abs(a)).sum(axis=1).max())


def sparsity(matrix) -> float:
    """Fraction of entries with magnitude at most 1e-14.

    A ``BandedMatrix`` counts its 3n - 2 diagonal entries plus the
    n² - (3n - 2) structural zeros: the dense value bit for bit, in O(n).
    """
    if isinstance(matrix, BandedMatrix):
        n, entries = matrix.n, np.concatenate([matrix.lower, matrix.diag, matrix.upper])
        return float((int((np.abs(entries) <= SPARSITY_TOL).sum()) + n * n - (3 * n - 2)) / (n * n))
    a = _as_dense(matrix)
    return float(np.mean(np.abs(a) <= SPARSITY_TOL))


@dataclass(frozen=True)
class BoundCheck:
    """Outcome of the pointwise error-bound verification."""

    holds: bool
    worst_ratio: float
    proxy: float


def minimax_proxy(basis, f) -> float:
    """Discrete sup-norm distance from ``f`` to the basis span.

    Solves the linear program: minimize ``e`` subject to
    ``-e <= f(t_i) - sum_j c_j B_j(t_i) <= e`` on ``PROXY_GRID_SIZE``
    equispaced points, and returns the sup residual of the optimal ``c``. The
    value lower-bounds the continuous minimax error only up to grid
    resolution, hence callers apply slack.

    Raises
    ------
    SplineError
        If the solver does not report an optimal solution.
    """
    # deferred: scipy.optimize adds 0.2-0.4 s to ``import epspline``
    from scipy.optimize import linprog

    t = np.linspace(basis.a, basis.b, PROXY_GRID_SIZE)
    design = basis_matrix(basis, t).T
    ft = check_values("target function values", f(t), PROXY_GRID_SIZE)
    ones = np.ones((PROXY_GRID_SIZE, 1))
    # variables (c, e): design @ c - e <= f and -design @ c - e <= -f
    res = linprog(np.r_[np.zeros(basis.n), 1.0], bounds=(None, None),
                  A_ub=np.block([[design, -ones], [-design, -ones]]), b_ub=np.r_[ft, -ft])
    if res.status != 0:
        raise SplineError(f"minimax linear program failed: {res.message}")
    return float(np.abs(ft - design @ res.x[:-1]).max())


def check_error_bound(f, interp: Interpolant, grid) -> BoundCheck:
    """Check ``|f - I(x)| <= (1 + lebesgue(x)) * proxy * (1 + BOUND_SLACK)`` on a grid.

    ``f`` must be callable on arrays and finite on ``[a, b]``. Targets inside
    the spline span make both sides vanish; sub-roundoff left-hand sides are
    accepted outright.
    """
    grid = np.atleast_1d(np.asarray(grid, dtype=float))
    if grid.size == 0:
        raise InvalidInputError("empty evaluation grid")
    basis = interp.basis
    proxy = minimax_proxy(basis, f)
    lam = lebesgue_function(basis, grid)
    f_grid = check_values("target function values", f(grid), grid.size)
    lhs = np.abs(f_grid - interp(grid))
    rhs = (1.0 + lam) * proxy * (1.0 + BOUND_SLACK)
    floor = 1e-7 * max(1.0, float(np.abs(f_grid).max()))
    ok = bool(np.all((lhs <= rhs) | (lhs <= floor)))
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(lhs <= floor, 0.0, lhs / np.maximum(rhs, 1e-300))
    return BoundCheck(holds=ok, worst_ratio=float(ratios.max()), proxy=proxy)
