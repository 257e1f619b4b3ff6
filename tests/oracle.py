"""Slow evaluations of the spline basis: references for the tests.

The library evaluates the basis one way only: ``GBSplineBasis.active_values``
contracts the segment functions at each point with one 4x4 block of the
per-interval table ``GBSplineBasis.table``. The functions here evaluate it
without that table:

- ``evaluate`` takes one basis function at a time, one support interval at a
  time, with a matrix product of ``segment_basis_eval`` and ``coef[j, s]``;
- ``active_values_by_gather`` gathers the 4x4 block of every point from
  ``coef`` and zeroes the slots with no function afterwards. Its ``einsum``
  runs over the same numbers in the same order as the library's, so the two
  must agree bit for bit.

``raw_generators`` evaluates the four exponential generators directly, the
reference for the span of the normalized segment basis.

``collocation_by_values`` assembles the collocation matrix by evaluating the
basis at every interior knot and scattering the values by function index, the
reference for ``collocation_matrix``, which reads its rows from ``table``.

``lebesgue_by_solve`` is the Lebesgue function as the sum of the absolute
cardinal values from the transposed collocation solve, the reference for the
per-interval table form of ``lebesgue_function``.

``greedy_uncached`` runs either greedy with nothing carried from one
insertion to the next: each step builds the basis from scratch and scores
every remaining candidate through ``Interpolant.__call__`` or
``lebesgue_function``, the reference for λ-greedy's carried values and for
both greedies' reuse of the previous basis.
"""

import numpy as np

from epspline import (
    ExpSpace,
    build_basis,
    cardinal_values,
    collocation_matrix,
    fit,
    lebesgue_function,
)
from epspline.greedy import _greedy_loop
from epspline.space import segment_basis_eval


def support(basis, j: int) -> tuple[float, float]:
    """Closed support interval of basis function ``j``."""
    E = basis.knots.extended
    return float(E[j]), float(E[j + 4])


def segment_value(basis, j: int, s: int, tau, deriv_order: int = 0):
    """Value of basis function ``j`` on its ``s``-th support interval.

    ``tau`` is the normalized coordinate in [0, 1]; derivatives are with
    respect to ``x``. Evaluating at ``tau`` 0/1 from both neighboring
    segments is how the smoothness tests probe continuity.
    """
    E = basis.knots.extended
    h = E[j + s + 1] - E[j + s]
    g = segment_basis_eval(basis.space.alpha * h, tau, deriv_order)
    return (g @ basis.coef[j, s]) / h**deriv_order


def evaluate(basis, j: int, x, deriv_order: int = 0):
    """Value (or derivative) of basis function ``j`` at ``x``.

    Exactly zero outside the support. ``x`` may be a scalar or an array.
    """
    E = basis.knots.extended
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.zeros_like(xa)
    for s in range(4):
        lo, hi = E[j + s], E[j + s + 1]
        sel = (xa >= lo) & (xa < hi) if s < 3 else (xa >= lo) & (xa <= hi)
        if np.any(sel):
            out[sel] = segment_value(basis, j, s, (xa[sel] - lo) / (hi - lo), deriv_order)
    return out if np.ndim(x) else float(out[0])


def active_values_by_gather(basis, x):
    """``active_values`` computed by gathering ``coef[j, seg]`` at every point."""
    E = basis.knots.extended
    xa = np.asarray(x, dtype=float)
    i0 = np.clip(np.searchsorted(E, xa, side="right") - 1, 2, basis.n)
    h = E[i0 + 1] - E[i0]
    tau = (xa - E[i0]) / h
    g = segment_basis_eval(basis.space.alpha * h, tau)
    indices = i0[..., None] - np.arange(3, -1, -1)
    valid = (indices >= 0) & (indices < basis.n)
    jc = np.clip(indices, 0, basis.n - 1)
    seg = i0[..., None] - jc
    values = np.einsum("...k,...sk->...s", g, basis.coef[jc, seg])
    return np.where(valid, values, 0.0), indices


def raw_generators(alpha: float, t, deriv_order: int = 0) -> np.ndarray:
    """The generators ``exp(a t)``, ``t exp(a t)``, ``exp(-a t)``, ``t exp(-a t)``.

    Derivatives of order 0, 1 or 2 in ``t``; shape ``t.shape + (4,)``.
    """
    t = np.asarray(t, dtype=float)
    a = alpha
    at = a * t
    ep = np.exp(at)
    em = np.exp(-at)
    if deriv_order == 0:
        cols = (ep, t * ep, em, t * em)
    elif deriv_order == 1:
        cols = (a * ep, (1.0 + at) * ep, -a * em, (1.0 - at) * em)
    else:
        a2 = a * a
        cols = (a2 * ep, a * (2.0 + at) * ep, a2 * em, a * (at - 2.0) * em)
    return np.stack(np.broadcast_arrays(*cols), axis=-1)


def collocation_by_values(basis):
    """``(lower, diag, upper)`` of the matrix of ``active_values`` at the interior knots."""
    n = basis.n
    values, indices = basis.active_values(basis.knots.interior)
    rows = np.broadcast_to(np.arange(n)[:, None], indices.shape)
    keep = (indices >= 0) & (indices < n) & (np.abs(indices - rows) <= 1)
    dense = np.zeros((n, n))
    dense[rows[keep], indices[keep]] = values[keep]
    return np.diagonal(dense, -1), np.diagonal(dense), np.diagonal(dense, 1)


def lebesgue_by_solve(basis, x):
    """Σ|``cardinal_values``| at each point of ``x``: one transposed solve per point."""
    return np.abs(cardinal_values(basis, np.atleast_1d(x))).sum(axis=1)


def greedy_uncached(candidates, config, values=None, lebesgue=lebesgue_function):
    """The trace of ``f_greedy`` on ``values``, or of ``lambda_greedy`` if they are None.

    Every step builds the basis from scratch and locates and evaluates every
    remaining candidate again, inside the loop's ``refit`` as the library's
    greedies score; the Lebesgue criterion is ``lebesgue(basis, x)``, called
    once per step, the last included.
    """
    cand = np.asarray(candidates, dtype=float)
    space = ExpSpace(config.alpha)

    def refit(selected, remaining):
        basis = build_basis(cand[selected], space)
        phi = collocation_matrix(basis)
        if values is not None:
            interp = fit(basis, values[selected])
            return None, phi, np.abs(values[remaining] - interp(cand[remaining]))
        return None, phi, lebesgue(basis, cand[remaining])

    return _greedy_loop(cand, refit, config.tau, config.max_iter)[2]
