"""Compactly supported C2 exponential spline basis over an augmented knot vector.

For ``n`` interior knots the basis has exactly ``n`` bell-shaped functions.
Each one spans four consecutive knot intervals of the augmented vector, is
represented per interval in the normalized segment basis (see
``space.segment_basis_eval``), vanishes with its first two derivatives at both
support endpoints, and is normalized to 1 at its central knot. The normalized
representation keeps the per-function linear systems well conditioned even
when neighboring knot gaps differ by orders of magnitude or are very small
relative to ``1/alpha``.

Evaluation goes through one per-interval table, the pp-form of de Boor's
``bsplpp`` (*A Practical Guide to Splines*, 2001): on each interval of
``[a, b]`` the four live functions are a 4x4 matrix times the four segment
functions there. The table is gathered from ``coef`` once, when the basis is
constructed.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import BasisConstructionError, DomainError, check_points
from .space import EXP_ARG_LIMIT, ExpSpace, segment_basis_eval

# Condition-number ceiling for the per-function 16x16 local systems
# (measured after row equilibration, i.e. on the system actually solved).
LOCAL_SYSTEM_COND_LIMIT = 1e12


@dataclass(frozen=True)
class AugmentedKnots:
    """Strictly increasing interior knots plus two extra knots at each end."""

    interior: np.ndarray
    extended: np.ndarray

    @property
    def n(self) -> int:
        return len(self.interior)

    @property
    def a(self) -> float:
        return float(self.interior[0])

    @property
    def b(self) -> float:
        return float(self.interior[-1])


def augment_knots(interior) -> AugmentedKnots:
    """Extend interior knots by mirroring the first and last gap twice.

    With interior knots ``x1 < ... < xn`` the extension appends ``x1 - g``,
    ``x1 - 2g`` on the left (``g = x2 - x1``) and symmetrically on the right
    with the last gap. The uniform-extension rule is deterministic; the
    interpolant is not very sensitive to the exact placement. A knot span whose
    extension overflows raises ``DomainError``.
    """
    x = check_points("interior knots", interior, 2)
    with np.errstate(over="ignore"):
        gl = x[1] - x[0]
        gr = x[-1] - x[-2]
        extended = np.concatenate(
            [[x[0] - 2.0 * gl, x[0] - gl], x, [x[-1] + gr, x[-1] + 2.0 * gr]]
        )
        if not np.isfinite(extended[-1] - extended[0]):
            raise DomainError(f"knot span [{x[0]:g}, {x[-1]:g}]: its extension by the "
                              "mirrored end gaps overflows")
    return AugmentedKnots(interior=x, extended=extended)


@dataclass(frozen=True)
class GBSplineBasis:
    """The n basis functions over an augmented knot vector.

    ``coef[j, s, k]`` multiplies the ``k``-th normalized segment function on
    the ``s``-th interval of the support of basis function ``j``; the support
    of function ``j`` (0-based) is ``[extended[j], extended[j+4]]``.

    ``table[i, s]``, shape ``(n - 1, 4, 4)``, holds the coefficients of
    function ``i + s - 1`` on the ``i``-th interval ``[interior[i],
    interior[i+1]]``, and is exactly zero where that function does not exist.
    It is computed from ``coef`` at construction and never changes.
    """

    knots: AugmentedKnots
    space: ExpSpace
    coef: np.ndarray
    table: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # function i + s - 1 lives on its (3 - s)-th support interval; padding
        # coef with a zero function at each end fills the slots of i = -1 and n
        padded = np.zeros((self.n + 2, 4, 4))
        padded[1:-1] = self.coef
        s = np.arange(4)
        object.__setattr__(self, "table", padded[np.arange(self.n - 1)[:, None] + s, 3 - s])

    @property
    def n(self) -> int:
        return self.knots.n

    @property
    def a(self) -> float:
        return self.knots.a

    @property
    def b(self) -> float:
        return self.knots.b

    def _locate(self, x):
        """Interval index ``i`` of each point and the 4 segment functions there.

        Every evaluator calls this; a point outside ``[a, b]`` or NaN raises ``DomainError``.
        """
        E = self.knots.extended
        xa = np.asarray(x, dtype=float)
        if not np.all((xa >= self.a) & (xa <= self.b)):
            raise DomainError(f"evaluation outside [{self.a:g}, {self.b:g}]")
        i0 = np.clip(np.searchsorted(E, xa, side="right") - 1, 2, self.n)
        h = E[i0 + 1] - E[i0]
        return i0 - 2, segment_basis_eval(self.space.alpha * h, (xa - E[i0]) / h)

    def active_values(self, x):
        """Values of the (at most 4) basis functions alive at each point.

        Returns
        -------
        values : numpy.ndarray, shape (m, 4)
        indices : numpy.ndarray, shape (m, 4)
            Basis indices matching ``values``; entries outside ``[0, n)`` mark
            slots with no active function (their value is 0).

        A point outside ``[a, b]`` or NaN raises ``DomainError``.
        """
        i, g = self._locate(x)
        values = np.einsum("...k,...sk->...s", g, self.table[i])
        return values, i[..., None] + np.arange(-1, 3)


def build_basis(knots, space: ExpSpace, prior: GBSplineBasis | None = None) -> GBSplineBasis:
    """Construct the basis by solving one 16x16 local system per function.

    Parameters
    ----------
    knots : AugmentedKnots or array_like
        Augmented knots, or raw interior knots (augmented automatically).
    space : ExpSpace
    prior : GBSplineBasis, optional
        A basis built earlier, typically on the same knots before one
        insertion. A function whose five support knots and ``alpha`` equal
        those of one of ``prior``'s functions has the same local system, so
        its coefficients are copied; only the other functions are solved.
        The result is bitwise equal to a build without ``prior``.

    Returns
    -------
    GBSplineBasis

    Raises
    ------
    DomainError
        If ``alpha`` times the longest knot interval exceeds the overflow
        limit.
    BasisConstructionError
        If any local system is singular, not finite, or has condition number
        above 1e12. The message names the function's index in the basis.

    Notes
    -----
    Each local system imposes 15 homogeneous constraints (value and first two
    derivatives vanish at both support ends, C2 continuity across the three
    interior support knots) plus normalization to 1 at the central knot. The
    homogeneous part has a one-dimensional nullspace, so the normalized
    system is square and uniquely solvable. Derivative rows are rescaled by
    knot-gap powers and the system is row-equilibrated before solving.
    """
    if not isinstance(knots, AugmentedKnots):
        knots = augment_knots(knots)
    E = knots.extended
    n = knots.n
    scale = space.alpha * float(np.max(np.diff(E)))
    if scale > EXP_ARG_LIMIT:
        raise DomainError(
            f"alpha * longest interval = {scale:.3g} exceeds the overflow limit "
            f"{EXP_ARG_LIMIT:g}"
        )

    windows = np.lib.stride_tricks.sliding_window_view
    sup = windows(E, 5)[:n]  # (n, 5) support knots
    coef = np.empty((n, 4, 4))
    todo = np.arange(n)  # functions whose local system is solved below
    if prior is not None and prior.space == space:
        old = windows(prior.knots.extended, 5)[:prior.n]
        pos = np.minimum(np.searchsorted(old[:, 0], sup[:, 0]), prior.n - 1)
        same = np.all(old[pos] == sup, axis=1)
        coef[same] = prior.coef[pos[same]]
        todo = np.flatnonzero(~same)

    k = len(todo)
    h = np.diff(sup[todo], axis=1)  # (k, 4) interval lengths
    z = space.alpha * h
    with np.errstate(over="ignore", invalid="ignore"):
        seg = {(tau, d): segment_basis_eval(z, tau, d) for tau in (0.0, 1.0) for d in range(3)}

    def beta(s, tau, d):
        return seg[tau, d][:, s]  # (k, 4)

    A = np.zeros((k, 16, 16))
    for d in range(3):
        # vanishing value/derivatives at both support ends
        # (chain factors 1/h^d absorbed into the row scaling)
        A[:, d, 0:4] = beta(0, 0.0, d)
        A[:, 12 + d, 12:16] = beta(3, 1.0, d)
    for m in range(1, 4):
        # C2 continuity at the m-th interior support knot; rows scaled by
        # min(h_left, h_right)^d so entries stay bounded (an extension knot
        # rounded onto its neighbour leaves h = 0, a NaN row ranked singular)
        h_min = np.minimum(h[:, m - 1], h[:, m])
        for d in range(3):
            r = 3 + 3 * (m - 1) + d
            with np.errstate(invalid="ignore"):
                left_scale = (h_min / h[:, m - 1]) ** d
                right_scale = (h_min / h[:, m]) ** d
            A[:, r, 4 * (m - 1): 4 * m] = beta(m - 1, 1.0, d) * left_scale[:, None]
            A[:, r, 4 * m: 4 * m + 4] = -beta(m, 0.0, d) * right_scale[:, None]
    # unit value at the central support knot (left end of the third interval)
    A[:, 15, 8:12] = beta(2, 0.0, 0)

    rhs = np.zeros((k, 16, 1))
    rhs[:, 15, 0] = 1.0
    # a zero or overflowed row leaves a non-finite system, ranked as singular
    with np.errstate(divide="ignore", invalid="ignore"):
        row_scale = np.abs(A).max(axis=2, keepdims=True)
        A /= row_scale
        rhs /= row_scale
    finite = np.all(np.isfinite(A), axis=(1, 2))
    conds = np.full(k, np.inf)
    try:
        conds[finite] = np.linalg.cond(A[finite])
        bad = np.flatnonzero(~(conds <= LOCAL_SYSTEM_COND_LIMIT))
        if len(bad):
            raise BasisConstructionError(
                f"local system for basis function {todo[bad[0]]} is numerically "
                f"rank-deficient (condition estimate {conds[bad[0]]:.3g})"
            )
        coef[todo] = np.linalg.solve(A, rhs)[:, :, 0].reshape(k, 4, 4)
    except np.linalg.LinAlgError as exc:
        raise BasisConstructionError(
            f"singular local system among basis functions {todo[0]}..{todo[-1]}: {exc}"
        ) from exc
    return GBSplineBasis(knots=knots, space=space, coef=coef)
