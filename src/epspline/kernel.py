"""Thin-plate-spline kernel interpolation with residual-based greedy selection.

Comparison baseline for the spline node-selection experiments: a conditionally
positive definite kernel of order 2 with a linear polynomial tail, fitted
through the usual symmetric saddle-point system.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SingularSystemError, check_points, check_values
from .greedy import _greedy_loop, check_stop_rule

__all__ = ["tps_kernel", "KernelInterpolant", "tps_fit", "kernel_f_greedy"]


def tps_kernel(r):
    """Thin plate spline kernel r^2 * log(r), zero at r = 0."""
    r = np.asarray(r, dtype=float)
    out = np.zeros_like(r)
    nz = r > 0.0
    out[nz] = r[nz] ** 2 * np.log(r[nz])
    return out


@dataclass(frozen=True)
class KernelInterpolant:
    """Kernel expansion over the centers plus a linear tail; its values have the shape of the
    points, and ``DomainError`` is raised where one is not finite."""

    centers: np.ndarray
    weights: np.ndarray
    tail: np.ndarray  # (constant, slope)

    def __call__(self, x):
        xa = np.asarray(x, dtype=float).reshape(-1)
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite value is checked below
            k = tps_kernel(np.abs(xa[:, None] - self.centers[None, :]))
            out = k @ self.weights + self.tail[0] + self.tail[1] * xa
        if not np.all(np.isfinite(out)):
            raise DomainError(f"kernel interpolant not finite at x = "
                              f"{float(xa[~np.isfinite(out)][0])!r}")
        return out.reshape(np.shape(x)) if np.ndim(x) else float(out[0])


def _saddle_matrix(x: np.ndarray) -> np.ndarray:
    n = len(x)
    a = np.zeros((n + 2, n + 2))
    with np.errstate(over="ignore"):  # an overflow leaves an inf, which _solve_saddle rejects
        a[:n, :n] = tps_kernel(np.abs(x[:, None] - x[None, :]))
    a[:n, n] = 1.0
    a[:n, n + 1] = x
    a[n, :n] = 1.0
    a[n + 1, :n] = x
    return a


def tps_fit(x, y) -> KernelInterpolant:
    """Interpolate ``y`` at ``x`` with moment constraints on the kernel part.

    Requires at least 3 finite, distinct sorted points and finite values. The
    two extra equations force the kernel weights to be orthogonal to
    constants and linears, which makes the saddle system nonsingular and the
    tail reproduce linear data exactly.
    """
    x = check_points("points", x, 3)
    return _solve_saddle(x, check_values("values", y, len(x)))[0]


def _solve_saddle(x: np.ndarray, y: np.ndarray) -> tuple[KernelInterpolant, np.ndarray]:
    """Fit on checked sorted centres; also return the saddle matrix solved.

    A saddle matrix or solution that is not finite is a ``SingularSystemError``.
    """
    a = _saddle_matrix(x)
    if not np.all(np.isfinite(a)):
        raise SingularSystemError("kernel saddle matrix has a non-finite entry")
    rhs = np.concatenate([y, [0.0, 0.0]])
    try:
        sol = np.linalg.solve(a, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(f"singular kernel saddle system: {exc}") from exc
    if not np.all(np.isfinite(sol)):
        raise SingularSystemError("kernel saddle system has a non-finite solution")
    return KernelInterpolant(centers=x, weights=sol[:-2], tail=sol[-2:]), a


def kernel_f_greedy(candidates, values, tau: float | None = None,
                    max_iter: int | None = None):
    """Residual-based greedy selection with the kernel model.

    Runs the loop of the spline greedies (``greedy._greedy_loop``) with its
    initial set of the two smallest and two largest candidates, ties
    resolved to the smallest candidate index, ``max_iter`` capping the total
    selected count, and a ``GreedyError`` carrying the partial trace on a
    numerical failure. The trace records the condition and sparsity of the
    saddle matrix.

    Returns
    -------
    (selected, model, trace)
        Sorted selected points, the ``KernelInterpolant`` on them, and the
        per-iteration trace.
    """
    cand = np.asarray(candidates, dtype=float)
    vals = check_values("values", values, cand.size)
    check_stop_rule(tau, max_iter)

    def refit(selected, remaining):
        # the loop hands over sorted indices into validated candidates
        model, a = _solve_saddle(cand[selected], vals[selected])
        return model, a, np.abs(vals[remaining] - model(cand[remaining]))

    return _greedy_loop(cand, refit, tau, max_iter)
