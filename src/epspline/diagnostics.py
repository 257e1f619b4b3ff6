"""Stability and error diagnostics for collocation interpolation.

κ₂ and sparsity of a ``BandedMatrix`` come from its three diagonals, never
from a dense matrix; any other matrix goes through a dense SVD and count. The
error-bound checker validates the pointwise inequality
``|f - I(x)| <= (1 + lebesgue(x)) * best_sup_error``, taking the best in-span
sup-norm error as the exact discrete minimax, a linear program on 2001 points.
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


def _as_dense(matrix) -> np.ndarray:
    if isinstance(matrix, BandedMatrix):
        return matrix.to_dense()
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2:
        raise InvalidInputError(f"expected a matrix, got shape {a.shape}")
    return a


def _banded_extreme_singular_values(matrix: BandedMatrix):
    bands = matrix.bands.copy()
    bands[0, 0] = bands[2, -1] = 0.0  # the two slots outside the matrix
    peak = np.abs(bands).max()
    if not 0.0 < peak < np.inf:  # zero, or a non-finite entry: cond2 says inf
        return 0.0, 0.0
    # an exact power-of-two scaling keeps the squares clear of under- and overflow
    upper, diag, lower = np.ldexp(bands, -np.frexp(peak)[1])
    sup, sub, n = upper[1:], lower[:-1], matrix.n
    gram = np.zeros((3, n))  # AᵀA, upper band with kd = 2
    gram[2] = upper ** 2 + diag ** 2 + lower ** 2
    gram[1, 1:] = diag[:-1] * sup + sub * diag[1:]
    gram[0, 2:] = sub[:-1] * sup[1:]
    # σ_min from AᵀA would carry a relative error of about eps·κ₂², so it comes
    # from [[0, A], [Aᵀ, 0]] with rows and columns interleaved (upper band,
    # kd = 3), whose eigenvalues are ±σ_i
    jw = np.zeros((4, 2 * n))
    jw[2, 1::2], jw[2, 2::2], jw[0, 3::2] = diag, sub, sup
    s_max2 = eigvals_banded(gram, select="i", select_range=(n - 1, n - 1))[0]
    return np.sqrt(max(s_max2, 0.0)), eigvals_banded(jw, select="i", select_range=(n, n))[0]


def cond2(matrix) -> float:
    """Spectral condition number: ratio of extreme singular values.

    For a ``BandedMatrix``, σ_max² is the top eigenvalue of the banded AᵀA and
    σ_min eigenvalue n of the banded [[0, A], [Aᵀ, 0]] (Golub & Kahan, 1965),
    each from one LAPACK ``sbevx`` call in O(n²), within a small multiple of
    eps·κ₂ relative of a dense SVD. Returns ``inf`` for a non-finite entry,
    or when σ_min is at most ``n * eps * σ_max``.
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

    A ``BandedMatrix`` counts its 3n - 2 in-matrix band entries plus the
    n² - (3n - 2) structural zeros: the dense value bit for bit, in O(n).
    """
    if isinstance(matrix, BandedMatrix):
        n, small = matrix.n, np.abs(matrix.bands) <= SPARSITY_TOL
        small[0, 0] = small[2, -1] = False  # the two slots outside the matrix
        return float((int(small.sum()) + n * n - (3 * n - 2)) / (n * n))
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
