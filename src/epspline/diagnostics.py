"""Stability and error diagnostics for collocation interpolation.

Dense computations throughout: the intended scale is a few thousand nodes at
most. The error-bound checker validates the pointwise inequality
``|f - I(x)| <= (1 + lebesgue(x)) * best_sup_error`` using a discrete minimax
proxy for the best in-span sup-norm fit.
"""

from dataclasses import dataclass

import numpy as np

from .banded import BandedMatrix, factorize
from .errors import InvalidInputError
from .interpolate import Interpolant, basis_matrix, collocation_matrix, lebesgue_function

SPARSITY_TOL = 1e-14


def _as_dense(matrix) -> np.ndarray:
    if isinstance(matrix, BandedMatrix):
        return matrix.to_dense()
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2:
        raise InvalidInputError(f"expected a matrix, got shape {a.shape}")
    return a


def cond2(matrix) -> float:
    """Spectral condition number: ratio of extreme singular values.

    Returns ``inf`` for matrices singular to working precision.
    """
    a = _as_dense(matrix)
    if a.shape[0] != a.shape[1]:
        raise InvalidInputError("condition number needs a square matrix")
    try:
        s = np.linalg.svd(a, compute_uv=False)
    except np.linalg.LinAlgError:
        return float("inf")
    if s[-1] <= s[0] * np.finfo(float).eps * max(a.shape):
        return float("inf")
    return float(s[0] / s[-1])


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
    """Fraction of entries with magnitude at most 1e-14."""
    a = _as_dense(matrix)
    return float(np.mean(np.abs(a) <= SPARSITY_TOL))


@dataclass(frozen=True)
class BoundCheck:
    """Outcome of the pointwise error-bound verification.

    ``status`` is "ok" when the minimax proxy stabilized and "inconclusive"
    when it did not (the bound is then not asserted either way).
    """

    holds: bool
    worst_ratio: float
    proxy: float
    status: str


def minimax_proxy(
    basis, f, grid_size: int = 2001, max_iter: int = 200, stall_window: int = 10,
    stall_rtol: float = 1e-2,
) -> tuple[float, bool]:
    """Discrete sup-norm distance from ``f`` to the basis span.

    Iteratively reweighted least squares (Lawson's weights: multiply by the
    absolute residual, renormalize) drives the weighted L2 fit toward the
    minimax fit on a dense grid. Returns the sup residual of the final
    iterate and a convergence flag; the value lower-bounds the continuous
    minimax error only up to grid resolution, hence callers apply slack.
    """
    t = np.linspace(basis.a, basis.b, grid_size)
    design = basis_matrix(basis, t).T
    ft = np.asarray(f(t), dtype=float)
    w = np.full(grid_size, 1.0 / grid_size)
    history = []
    for _ in range(max_iter):
        sw = np.sqrt(w)
        c, *_ = np.linalg.lstsq(design * sw[:, None], ft * sw, rcond=None)
        r = ft - design @ c
        e = float(np.abs(r).max())
        history.append(e)
        if e <= 1e-12 * max(1.0, float(np.abs(ft).max())):
            return e, True
        if len(history) > stall_window:
            window = history[-stall_window:]
            if (max(window) - min(window)) <= stall_rtol * min(window):
                return e, True
        w = w * np.abs(r)
        total = w.sum()
        if total <= 0.0:
            return e, True
        w /= total
    return history[-1], False


def check_error_bound(f, interp: Interpolant, grid, slack: float = 0.05) -> BoundCheck:
    """Check ``|f - I(x)| <= (1 + lebesgue(x)) * proxy * (1 + slack)`` on a grid.

    ``f`` must be callable on arrays. Targets inside the spline span make
    both sides vanish; sub-roundoff left-hand sides are accepted outright.
    """
    if slack < 0.0:
        raise InvalidInputError(f"slack must be nonnegative, got {slack}")
    grid = np.atleast_1d(np.asarray(grid, dtype=float))
    basis = interp.basis
    proxy, converged = minimax_proxy(basis, f)
    lu = factorize(collocation_matrix(basis))
    lam = lebesgue_function(basis, lu, grid)
    f_grid = np.asarray(f(grid), dtype=float)
    lhs = np.abs(f_grid - interp(grid))
    rhs = (1.0 + lam) * proxy * (1.0 + slack)
    floor = 1e-7 * max(1.0, float(np.abs(f_grid).max()))
    ok = bool(np.all((lhs <= rhs) | (lhs <= floor)))
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(lhs <= floor, 0.0, lhs / np.maximum(rhs, 1e-300))
    if not converged:
        return BoundCheck(holds=ok, worst_ratio=float(ratios.max()), proxy=proxy,
                          status="inconclusive")
    return BoundCheck(holds=ok, worst_ratio=float(ratios.max()), proxy=proxy, status="ok")
