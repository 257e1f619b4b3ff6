"""Compactly supported C2 exponential spline basis over the interior knots.

For ``n`` interior knots the basis has exactly ``n`` bell-shaped functions.
``build_basis`` pads the knots with two more at each end, mirroring the first
and the last gap; each function spans four consecutive intervals of the
padded knots, is represented per interval in the normalized segment basis
(see ``space.segment_basis_eval``), vanishes with its first two derivatives at
both support endpoints, and is normalized to 1 at its central knot. The
normalized representation keeps the per-function linear systems well
conditioned even when neighboring knot gaps differ by orders of magnitude or
are very small relative to ``1/alpha``.

Only the build reads the padded knots. The basis keeps its interior knots,
``alpha`` and one per-interval table, the pp-form of de Boor's ``bsplpp`` (*A
Practical Guide to Splines*, 2001): on each interval of ``[a, b]`` the four
live functions are a 4x4 matrix times the four segment functions there. The
table is interval-last, so ``active_values`` gathers a point's matrix with
one ``np.take`` and answers the point with its interval and the four values
there, function-first like the segment functions.

Every evaluator calls ``GBSplineBasis._locate``: it finds each point's
interval, gathers that interval's knot and length with ``np.take`` and
evaluates the four segment functions at all points in one call, as four
contiguous arrays. Its callers gather their coefficients the same way, one
contiguous array per segment function, and combine the two with
``space.segment_combination``. ``_locate`` searches each point among the
knots, whatever the order of the points. None of this depends on the table,
so the basis keeps it for the last two point sets it met: a basis fitted to
many data vectors locates its grid once.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import BasisConstructionError, DomainError, InvalidInputError, check_points
from .space import EXP_ARG_LIMIT, ExpSpace, segment_basis_eval, segment_combination

# Condition-number ceiling for the per-function 16x16 local systems, row-equilibrated as
# solved; an SVD tests it only in blocks of CERTIFIED_BLOCK systems _certified cannot clear.
LOCAL_SYSTEM_COND_LIMIT = 1e12
CERTIFIED_BLOCK = 128

# Point sets whose intervals and segment functions a basis keeps (see
# GBSplineBasis._locate). Two, because evaluations alternate between two sets:
# a fitted interpolant on its nodes and on a grid, or the CLI's grid through
# active_values and then through the interpolant; one set would be evicted
# on every alternation.
LOCATED_SETS_KEPT = 2


def _certified(A) -> bool:
    """Whether a Cholesky proves κ₂ < 1.1e6 for every finite, row-equilibrated system of ``A``."""
    # per system: forming AᵀA and a completed Cholesky of AᵀA - μI err by < 4e-14 ||A||_F^2 (Higham
    # 2002, §10.1); success at μ = 1e-12 ||A||_F^2 gives σ_min > 9.8e-7 ||A||_F > σ_max / 1.1e6
    G = np.matmul(A.transpose(0, 2, 1), A)
    diagonal = np.einsum("kii->ki", G)  # a view into G; row sums trace(AᵀA) = ||A||_F^2
    diagonal -= 1e-12 * diagonal.sum(axis=1, keepdims=True)
    try:
        np.linalg.cholesky(G)
    except np.linalg.LinAlgError:
        return False
    return True


def _padded_knots(x: np.ndarray) -> np.ndarray:
    """The interior knots ``x`` with the first and last gap mirrored twice beyond each end.

    With ``x1 < ... < xn`` and ``g = x2 - x1`` the left end gets ``x1 - 2g``,
    ``x1 - g``, and the right end the same with the last gap. A knot span
    whose padding overflows raises ``DomainError``.
    """
    with np.errstate(over="ignore"):
        gl = x[1] - x[0]
        gr = x[-1] - x[-2]
        padded = np.concatenate(
            [[x[0] - 2.0 * gl, x[0] - gl], x, [x[-1] + gr, x[-1] + 2.0 * gr]]
        )
        if not np.isfinite(padded[-1] - padded[0]):
            raise DomainError(f"knot span [{x[0]:g}, {x[-1]:g}]: its extension by the "
                              "mirrored end gaps overflows")
    return padded


@dataclass(frozen=True)
class GBSplineBasis:
    """The n basis functions over the interior knots ``knots``, from ``a`` to ``b``.

    ``table[k, s, i]``, shape ``(4, 4, n - 1)`` and contiguous, is the
    coefficient of the ``k``-th normalized segment function in function
    ``i + s - 1`` on the ``i``-th interval ``[knots[i], knots[i+1]]``, exactly
    zero where that function does not exist. Function ``j`` is supported on
    ``[knots[j - 2], knots[j + 2]]``, the knots beyond either end mirrored as
    ``build_basis`` pads them; its pieces beyond ``[a, b]`` are not kept.

    The basis also holds the located intervals and segment functions of the
    last ``LOCATED_SETS_KEPT`` point sets it evaluated (``_locate``): 48 bytes
    a point, none of which depends on ``table``, so every interpolant on the
    basis reuses them. They are read-only, and the tuple holding them is
    replaced whole, never changed, so concurrent evaluations stay safe.
    """

    knots: np.ndarray
    space: ExpSpace
    table: np.ndarray
    _located: tuple = field(default=(), init=False, repr=False, compare=False)

    def __post_init__(self):
        if np.shape(self.table) != (4, 4, self.n - 1):
            raise InvalidInputError(f"table shape {np.shape(self.table)} != (4, 4, {self.n - 1})")

    @property
    def n(self) -> int:
        return len(self.knots)

    @property
    def a(self) -> float:
        return float(self.knots[0])

    @property
    def b(self) -> float:
        return float(self.knots[-1])

    def _locate(self, x):
        """Interval index ``i`` of each point and the 4 segment functions there.

        The segment functions are function-first, shape ``(4,) + shape(x)``.
        Every evaluator calls this; a point outside ``[a, b]`` or NaN raises ``DomainError``.

        Each point has one binary search among the knots, ``knots[i] <= x <
        knots[i + 1]`` with ``b`` in the last, so a call costs O(m) in its m points.

        The result for an array is kept for the ``LOCATED_SETS_KEPT`` point sets
        used last, keyed by shape and float64 bits, as read-only arrays; a
        point set met again returns them without checking, searching or
        evaluating anything. The held sets are one tuple, replaced whole, so
        concurrent calls at worst locate a set again. A scalar is not kept.
        """
        xa = np.asarray(x, dtype=float)
        if not xa.ndim:
            return self._search(xa)
        key = (xa.shape, xa.tobytes())
        held = self._located
        entry = next((e for e in held if e[0] == key), None)
        if entry is None:
            i, g = self._search(xa)
            i.flags.writeable = g.flags.writeable = False
            entry = (key, i, g)
        rest = tuple(e for e in held if e is not entry)
        object.__setattr__(self, "_located", (entry,) + rest[:LOCATED_SETS_KEPT - 1])
        return entry[1], entry[2]

    def _search(self, xa):
        """``_locate`` without the held point sets: check, search and evaluate ``xa``."""
        K = self.knots
        if not np.all((xa >= self.a) & (xa <= self.b)):
            raise DomainError(f"evaluation outside [{self.a:g}, {self.b:g}]")
        i = np.clip(np.searchsorted(K, xa, side="right") - 1, 0, self.n - 2)
        # knots[i] is gathered twice, not held: one array fewer alive in segment_basis_eval
        h = np.take(K, i + 1) - np.take(K, i)
        return i, segment_basis_eval(self.space.alpha * h, (xa - np.take(K, i)) / h)

    def active_values(self, x):
        """The knot interval of each point and the values there of its 4 basis functions.

        Returns
        -------
        interval : numpy.ndarray of int, shape ``shape(x)``
            Interval ``i`` holds ``[knots[i], knots[i+1]]``; ``b`` is in the last.
            A numpy integer for a scalar ``x``. A new array, the caller's to change.
        values : numpy.ndarray, shape ``(4,) + shape(x)``
            Values of functions ``i - 1 .. i + 2``, function-first like the
            segment functions; a slot with no function (index -1 or n) holds 0.

        A point outside ``[a, b]`` or NaN raises ``DomainError``.
        """
        i, g = self._locate(x)
        return i.copy(), segment_combination(np.take(self.table, i, axis=2), g[:, None])


def build_basis(knots, space: ExpSpace, prior: GBSplineBasis | None = None) -> GBSplineBasis:
    """Construct the basis by solving one 16x16 local system per function.

    Parameters
    ----------
    knots : array_like
        Interior knots: at least 2, finite and strictly increasing.
    space : ExpSpace
    prior : GBSplineBasis, optional
        A basis built earlier with the same ``alpha``, ``a`` and ``b``,
        typically on the same knots before one insertion. A function whose
        five support knots equal those of one of ``prior``'s functions has
        the same local system, so its columns of ``prior.table`` are copied;
        only the other functions are solved. Any other ``prior`` is ignored,
        as a matched function may then have a piece in ``[a, b]`` that
        ``prior.table`` lacks. The result is bitwise equal to a build without it.

    Returns
    -------
    GBSplineBasis

    Raises
    ------
    InvalidInputError
        If the knots are not as above.
    DomainError
        If the mirrored end knots overflow, or if ``alpha`` times the longest
        knot interval exceeds the overflow limit.
    BasisConstructionError
        If any local system is singular, not finite, or has condition number
        above 1e12 (see Notes). The message names the function's index in the basis.

    Notes
    -----
    Each local system imposes 15 homogeneous constraints (value and first two derivatives
    vanish at both support ends, C2 continuity across the three interior support knots) plus
    normalization to 1 at the central knot. The homogeneous part has a one-dimensional
    nullspace, so the normalized system is square and uniquely solvable. Derivative rows are
    rescaled by knot-gap powers and the system is row-equilibrated before solving. The
    segment functions are evaluated at the right end of each support interval only, by one
    call whose ``cosh`` and ``sinh`` give derivative orders 1 and 2 too; at its left end they
    and their derivatives are exact constants. All systems are assembled at once, by blocks,
    and solved as one batch. A Cholesky of ``AᵀA - μI`` per block of 128 certifies their
    condition below 1.1e6; a batched SVD measures it only in a block that fails.
    """
    x = check_points("interior knots", knots, 2)
    E = _padded_knots(x)
    n = len(x)
    scale = space.alpha * float(np.max(np.diff(E)))
    if scale > EXP_ARG_LIMIT:
        raise DomainError(
            f"alpha * longest interval = {scale:.3g} exceeds the overflow limit "
            f"{EXP_ARG_LIMIT:g}"
        )

    span = np.arange(5)  # function j's support knots are E[j + span]
    coef = np.zeros((4, 4, n + 2))  # coef[m, k, j + 1]: function j on support interval m
    todo = np.arange(n)  # functions whose local system is solved below
    if prior is not None and (prior.space, prior.a, prior.b) == (space, x[0], x[-1]):
        old = _padded_knots(prior.knots)
        pos = np.minimum(np.searchsorted(old[:prior.n], E[:n]), prior.n - 1)
        same = np.all(np.take(old, pos[:, None] + span) == np.take(E, todo[:, None] + span), 1)
        held = np.zeros((4, 4, prior.n + 2))  # prior's coef: the final gather inverted
        for s in range(4):
            held[3 - s, :, s:s + prior.n - 1] = prior.table[:, s]
        coef[:, :, 1 + np.flatnonzero(same)] = held[:, :, 1 + pos[same]]
        todo = np.flatnonzero(~same)

    k = len(todo)
    h = np.take(np.diff(E), todo[:, None] + span[:4])  # (k, 4) interval lengths
    z = space.alpha * h
    # start[:, i, d], end[:, i, d]: the d-th derivatives of the 4 segment functions at
    # tau = 0 and 1 on support interval i; at tau = 0 exactly (1, 0, 0, 0), (0, 1, 0, 0)
    # and (z*z, 0, 2, 0), at 1 from the cosh(z) and sinh(z)/z of segment_basis_eval
    start = np.zeros((k, 4, 3, 4))
    start[:, :, 0, 0] = start[:, :, 1, 1] = 1.0
    start[:, :, 2, 0] = z * z
    start[:, :, 2, 2] = 2.0
    with np.errstate(over="ignore", invalid="ignore"):
        g = segment_basis_eval(z, 1.0)
        c, s, z2 = g[0], g[1], z * z  # cosh(z) and sinh(z) / z
        end = np.stack([g, [z2 * s, c, s + c, 3.0 * s],
                        [z2 * c, z2 * s, 2.0 * c + z2 * s, 3.0 * (s + c)]]).transpose(2, 3, 0, 1)

    A = np.zeros((k, 16, 16))
    # vanishing value/derivatives at both support ends
    # (chain factors 1/h^d absorbed into the row scaling)
    A[:, 0:3, 0:4] = start[:, 0]
    A[:, 12:15, 12:16] = end[:, 3]
    # C2 continuity at the m-th interior support knot, rows 3m + d; both sides
    # scaled by weight[:, m - 1, side, d] = (min(h_left, h_right) / h_side)^d so
    # entries stay bounded (an extension knot rounded onto its neighbour leaves
    # h = 0, a NaN row ranked singular)
    with np.errstate(invalid="ignore"):
        ratio = np.minimum(h[:, :-1], h[:, 1:])[..., None] / np.stack([h[:, :-1], h[:, 1:]], -1)
    weight = np.stack([np.ones_like(ratio), ratio, ratio ** 2], -1)[..., None]
    for m in range(1, 4):
        A[:, 3 * m:3 * m + 3, 4 * (m - 1):4 * m] = end[:, m - 1] * weight[:, m - 1, 0]
        A[:, 3 * m:3 * m + 3, 4 * m:4 * m + 4] = -start[:, m] * weight[:, m - 1, 1]
    # unit value at the central support knot (left end of the third interval)
    A[:, 15, 8] = 1.0

    rhs = np.zeros((k, 16, 1))
    rhs[:, 15, 0] = 1.0
    # a zero or overflowed row leaves a non-finite system, ranked as singular
    with np.errstate(divide="ignore", invalid="ignore"):
        row_scale = np.abs(A).max(axis=2, keepdims=True)
        A /= row_scale
        rhs /= row_scale
    finite = np.all(np.isfinite(A), axis=(1, 2))
    conds = np.where(finite, 0.0, np.inf)  # 0: certified, so the SVD would accept it
    try:
        for b in (slice(j, j + CERTIFIED_BLOCK) for j in range(0, k, CERTIFIED_BLOCK)):
            if not (finite[b].all() and _certified(A[b])):
                conds[b][finite[b]] = np.linalg.cond(A[b][finite[b]])
        bad = np.flatnonzero(~(conds <= LOCAL_SYSTEM_COND_LIMIT))
        if len(bad):
            raise BasisConstructionError(
                f"local system for basis function {todo[bad[0]]} is numerically "
                f"rank-deficient (condition estimate {conds[bad[0]]:.3g})"
            )
        coef[:, :, 1 + todo] = np.linalg.solve(A, rhs)[:, :, 0].reshape(k, 4, 4).transpose(1, 2, 0)
    except np.linalg.LinAlgError as exc:
        raise BasisConstructionError(
            f"singular local system among basis functions {todo[0]}..{todo[-1]}: {exc}"
        ) from exc
    table = np.empty((4, 4, n - 1))
    for s in range(4):  # function i + s - 1, zero past either end, on its support interval 3 - s
        table[:, s] = coef[3 - s, :, s:s + n - 1]
    return GBSplineBasis(knots=x, space=space, table=table)
