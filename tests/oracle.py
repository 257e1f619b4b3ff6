"""Slow evaluations of the spline basis: references for the tests.

The library evaluates the basis one way only: ``GBSplineBasis.active_values``
contracts the segment functions at each point with one 4x4 block of the
per-interval table ``GBSplineBasis.table``. The functions here evaluate it
without that table, from ``coefficients``: ``coef[j, s]`` of every function
``j`` on each of its 4 support intervals ``s``, solved from ``local_system``
one function at a time, on the knots padded by ``padded_knots``, this
module's own copy of the mirrored-gap rule. ``table_by_scatter`` lays those
out as the library's table, the reference for ``build_basis``.

- ``evaluate`` takes one basis function at a time, one support interval at a
  time, with a matrix product of ``segment_functions`` and ``coef[j, s]``;
- ``active_values_by_gather`` gathers the 4x4 block of every point from
  ``coef`` and zeroes the slots with no function afterwards;
- ``interpolant_by_rows`` evaluates an interpolant point by point: the
  segment functions stacked as one row of 4 per point, times ``pp[:, i]``.

``interval_by_search`` locates every point by its own binary search among
the knots, the reference for ``GBSplineBasis._locate``.

The last two lay the segment functions out point-major, as rows, where the
library keeps one contiguous array per function, and they index where the
library gathers with ``np.take``. They sum the 4 products of a point as
``(q0 + q2) + (q1 + q3)``, the library's order (``sum4``), so each must agree
with the library bit for bit.

``raw_generators`` evaluates the four exponential generators directly, the
reference for the span of the normalized segment basis.

``collocation_by_values`` assembles the collocation matrix by evaluating the
basis at every interior knot and scattering the values by function index, the
reference for ``collocation_matrix``, which reads its rows from ``table``.

``lebesgue_by_solve`` is the Lebesgue function as the sum of the absolute
cardinal values from the transposed collocation solve, the reference for the
per-interval table form of ``lebesgue_function``. ``lebesgue_by_einsum`` is
that table form point-major, one 4x4 table per point contracted by
``einsum``, the reference for the column form of ``BandedLU.lebesgue``.

Two references keep the interval-first layout that the tables had before
they were stored interval-last, so that the change of layout is shown to
keep every bit: ``lebesgue_tables_interval_first`` inverts each window's
4x4 block as ``[i, r, s]`` with the elementwise steps of
``BandedLU.lebesgue_tables``, and ``pp_by_einsum`` forms an interpolant's
rows as ``einsum("is,isk->ik")`` over the basis table laid out ``[i, s, k]``.

``local_system`` assembles one function's 16x16 local system row by row,
with the segment functions and their derivatives at both ends of each support
interval from ``segment_functions``, the reference for ``build_basis``'s block
assembly. ``segment_functions`` extends ``segment_basis_eval``, which gives
values only, with the first two derivatives in ``tau``, formed from its
``cosh`` and ``sinh`` as ``build_basis`` forms them at ``tau = 1``.

``greedy_uncached`` runs either greedy with nothing carried from one
insertion to the next: each step builds the basis from scratch and scores
every remaining candidate through ``Interpolant.__call__`` or
``lebesgue_function``, the reference for what both greedies carry across
insertions (intervals, segment functions, λ-greedy's basis values) and for
the splice of each new knot into the previous basis (``basis._inserted``).
"""

from functools import lru_cache

import numpy as np

from epspline import (
    ExpSpace,
    build_basis,
    cardinal_values,
    collocation_matrix,
    fit,
    lebesgue_function,
)
from epspline.banded import _sweep
from epspline.greedy import _greedy_loop
from epspline.space import segment_basis_eval


def padded_knots(basis) -> np.ndarray:
    """The interior knots with two more beyond each end, at one and two times the end gap."""
    return _padded(basis.knots)


def _padded(x) -> np.ndarray:
    left, right = x[1] - x[0], x[-1] - x[-2]
    return np.concatenate([x[0] - np.array([2.0, 1.0]) * left, x,
                           x[-1] + np.array([1.0, 2.0]) * right])


def support(basis, j: int) -> tuple[float, float]:
    """Closed support interval of basis function ``j``."""
    E = padded_knots(basis)
    return float(E[j]), float(E[j + 4])


def segment_functions(z, tau, deriv_order: int = 0) -> np.ndarray:
    """The ``deriv_order``-th derivative in ``tau`` (0, 1 or 2) of the segment functions,
    function-first like ``segment_basis_eval``, whose values it starts from."""
    g = segment_basis_eval(z, tau)
    if deriv_order == 0:
        return g
    z, tau = np.asarray(z, dtype=float), np.asarray(tau, dtype=float)
    b1, b2, b3 = g[0], g[1], g[2]  # cosh(z tau), sinh(z tau) / z, tau sinh(z tau) / z
    if deriv_order == 1:
        return np.stack(np.broadcast_arrays(z * z * b2, b1, b2 + tau * b1, 3.0 * b3))
    z2 = z * z
    return np.stack(np.broadcast_arrays(z2 * b1, z2 * b2, 2.0 * b1 + z2 * b3,
                                        3.0 * (b2 + tau * b1)))


def segment_rows(z, tau, deriv_order: int = 0) -> np.ndarray:
    """``segment_functions`` stacked point-major: shape ``broadcast(z, tau).shape + (4,)``."""
    return np.stack(list(segment_functions(z, tau, deriv_order)), axis=-1)


def sum4(q):
    """``(q0 + q2) + (q1 + q3)`` over the last axis of length 4."""
    return (q[..., 0] + q[..., 2]) + (q[..., 1] + q[..., 3])


def segment_value(basis, j: int, s: int, tau, deriv_order: int = 0):
    """Value of basis function ``j`` on its ``s``-th support interval.

    ``tau`` is the normalized coordinate in [0, 1]; derivatives are with
    respect to ``x``. Evaluating at ``tau`` 0/1 from both neighboring
    segments is how the smoothness tests probe continuity.
    """
    E = padded_knots(basis)
    h = E[j + s + 1] - E[j + s]
    g = segment_rows(basis.space.alpha * h, tau, deriv_order)
    return (g @ coefficients(basis)[j, s]) / h**deriv_order


def evaluate(basis, j: int, x, deriv_order: int = 0):
    """Value (or derivative) of basis function ``j`` at ``x``.

    Exactly zero outside the support. ``x`` may be a scalar or an array.
    """
    E = padded_knots(basis)
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.zeros_like(xa)
    for s in range(4):
        lo, hi = E[j + s], E[j + s + 1]
        sel = (xa >= lo) & (xa < hi) if s < 3 else (xa >= lo) & (xa <= hi)
        if np.any(sel):
            out[sel] = segment_value(basis, j, s, (xa[sel] - lo) / (hi - lo), deriv_order)
    return out if np.ndim(x) else float(out[0])


def active_values_by_gather(basis, x):
    """``active_values`` computed by gathering ``coef[j, seg]`` at every point; the values
    are formed point-major and returned function-first, as the library returns them."""
    E = padded_knots(basis)
    xa = np.asarray(x, dtype=float)
    i0 = np.clip(np.searchsorted(E, xa, side="right") - 1, 2, basis.n)
    h = E[i0 + 1] - E[i0]
    tau = (xa - E[i0]) / h
    g = segment_rows(basis.space.alpha * h, tau)
    indices = i0[..., None] - np.arange(3, -1, -1)
    valid = (indices >= 0) & (indices < basis.n)
    jc = np.clip(indices, 0, basis.n - 1)
    seg = i0[..., None] - jc
    values = sum4(g[..., None, :] * coefficients(basis)[jc, seg])
    return i0 - 2, np.moveaxis(np.where(valid, values, 0.0), -1, 0)


def interval_by_search(knots, x):
    """The interval ``i`` of each point, ``knots[i] <= x < knots[i + 1]`` and ``b`` in the
    last, by one binary search per point: the shape of ``x``, whatever its order."""
    return np.clip(np.searchsorted(knots, np.asarray(x, dtype=float), side="right") - 1,
                   0, len(knots) - 2)


def interpolant_by_rows(interp, x):
    """``interp(x)`` from one row of segment functions per point times ``pp[:, i]``."""
    K = interp.basis.knots
    xa = np.asarray(x, dtype=float)
    i = interval_by_search(K, xa)
    h = K[i + 1] - K[i]
    g = segment_rows(interp.basis.space.alpha * h, (xa - K[i]) / h)
    with np.errstate(over="ignore", invalid="ignore"):
        out = sum4(g * np.moveaxis(interp.pp[:, i], 0, -1))
    return out if np.ndim(x) else float(out)


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
    interval, values = basis.active_values(basis.knots)
    indices = interval[:, None] + np.arange(-1, 3)
    rows = np.broadcast_to(np.arange(n)[:, None], indices.shape)
    keep = (indices >= 0) & (indices < n) & (np.abs(indices - rows) <= 1)
    dense = np.zeros((n, n))
    dense[rows[keep], indices[keep]] = values.T[keep]
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


def lebesgue_by_einsum(lu, interval, values):
    """``lu.lebesgue(interval, values)`` point-major: the tables gathered as ``(m, 4, 4)``,
    contracted with the ``(m, 4)`` basis values by ``einsum`` and summed by ``.sum(axis=1)``."""
    tables = np.take(lu.lebesgue_tables().transpose(2, 1, 0), interval, axis=0)
    return np.abs(np.einsum("prs,ps->pr", tables, np.ascontiguousarray(values.T))).sum(axis=1)


def local_system(knots, space, j):
    """The row-equilibrated 16x16 local system ``(A, rhs)`` of function ``j`` on the
    interior ``knots``, assembled one row at a time; ``coef[j] = np.linalg.solve(A,
    rhs).reshape(4, 4)`` (see ``coefficients``).

    Rows 0-2 and 12-14: value and first two derivatives vanish at the support
    ends. Row ``3 m + d``: the d-th derivative is continuous at the m-th interior
    support knot, both sides times ``(min(h_left, h_right) / h)^d``. Row 15:
    value 1 at the central knot.
    """
    h = np.diff(_padded(np.asarray(knots, dtype=float))[j:j + 5])
    z = space.alpha * h
    with np.errstate(over="ignore", invalid="ignore"):
        seg = {tau: [segment_functions(z, tau, d) for d in range(3)] for tau in (0.0, 1.0)}
        h_min = np.minimum(h[:-1], h[1:])
        ratios = (h_min / h[:-1], h_min / h[1:])
    A = np.zeros((16, 16))
    for d in range(3):
        A[d, 0:4] = seg[0.0][d][:, 0]
        A[12 + d, 12:16] = seg[1.0][d][:, 3]
        for m in range(1, 4):
            A[3 * m + d, 4 * m - 4:4 * m] = seg[1.0][d][:, m - 1] * ratios[0][m - 1:m] ** d
            A[3 * m + d, 4 * m:4 * m + 4] = -seg[0.0][d][:, m] * ratios[1][m - 1:m] ** d
    A[15, 8:12] = seg[0.0][0][:, 2]
    rhs = np.zeros(16)
    rhs[15] = 1.0
    row_scale = np.abs(A).max(axis=1)
    return A / row_scale[:, None], rhs / row_scale


def coefficients(basis) -> np.ndarray:
    """``coef``, shape ``(n, 4, 4)``: ``coef[j, s, k]`` multiplies the ``k``-th segment
    function on the ``s``-th support interval of function ``j``, beyond ``[a, b]``
    included; one ``local_system`` solve per function, kept for the last few bases."""
    return _coefficients(basis.knots.tobytes(), basis.space.alpha)


@lru_cache(maxsize=8)
def _coefficients(knot_bytes, alpha):
    knots, space = np.frombuffer(knot_bytes), ExpSpace(alpha)
    coef = np.array([np.linalg.solve(*local_system(knots, space, j)).reshape(4, 4)
                     for j in range(len(knots))])
    coef.flags.writeable = False
    return coef


def table_by_scatter(basis) -> np.ndarray:
    """``GBSplineBasis.table`` from ``coefficients``, one function and support interval
    at a time: support interval ``s`` of function ``j`` is interval ``j + s - 2``, where
    the function is slot ``3 - s``; zero where no function is."""
    coef, n = coefficients(basis), basis.n
    table = np.zeros((4, 4, n - 1))
    for j in range(n):
        for s in range(4):
            if 0 <= j + s - 2 <= n - 2:
                table[:, 3 - s, j + s - 2] = coef[j, s]
    return table


def pp_by_einsum(interp) -> np.ndarray:
    """``Interpolant.pp`` transposed, ``(n - 1, 4)``, as ``einsum("is,isk->ik")`` of the
    coefficient windows and a contiguous copy of the basis table laid out ``[i, s, k]``."""
    window = np.lib.stride_tricks.sliding_window_view(np.pad(interp.coefficients, 1), 4)
    table = np.ascontiguousarray(interp.basis.table.transpose(2, 1, 0))
    return np.einsum("is,isk->ik", window, table)


def lebesgue_tables_interval_first(lu) -> np.ndarray:
    """``lu.lebesgue_tables()`` transposed, ``(n - 1, 4, 4)`` as ``[i, r, s]``: each
    window's 4x4 block of ``M⁻¹`` inverted interval-first, with the elementwise steps
    of the library; read from ``lu``'s pivots, tail sums and diagonals."""
    w, sup, sub, d, sl = lu.n - 1, lu._sup, lu._sub, lu._pivots, lu._tails
    e, sr = _sweep(lu._diag[::-1], sub[:0:-1].tolist(), sup[:0:-1].tolist(), lu._floor)
    e, sr = np.append(1.0, e[::-1]), np.append(0.0, sr[::-1])
    twisted = e[1:] - sub * sup / d
    piv = [d[:w, None], d[1:w + 1, None], d[2:w + 2, None], twisted[2:w + 2, None]]
    y = np.broadcast_to(np.eye(4), (w, 4, 4)).copy()
    for r in range(1, 4):
        y[:, r] -= sub[r - 1:r - 1 + w, None] / piv[r - 1] * y[:, r - 1]
    y[:, 3] /= piv[3]
    for r in range(2, -1, -1):
        y[:, r] = (y[:, r] - sup[r:r + w, None] * y[:, r + 1]) / piv[r]
    y[:, 0] *= 1.0 + sl[:w, None]
    y[:, 3] *= 1.0 + sr[3:w + 3, None]
    return y
