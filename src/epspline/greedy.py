"""Greedy node selection for spline interpolation.

One insertion loop serves every model. The residual-based strategy inserts
the candidate with the largest interpolation residual and therefore adapts to
one target function; the Lebesgue-based strategy inserts the candidate where
the Lebesgue function of the current node set is largest and never looks at
function values, so it yields reusable a-priori node sets. The
thin-plate-spline baseline (``kernel.kernel_f_greedy``) runs the same loop
with its own fit.

An insertion changes only the basis functions whose support knots it moves:
the five whose support contains the new knot. Each spline refit therefore
passes the previous basis to ``build_basis``, which copies every other
function bit for bit and solves only those. The collocation matrix is still
assembled and factorized from scratch every iteration, once for both models.
The loop hands each refit the selected and the remaining candidate indices,
and the refit returns its scores at the remaining ones.

An insertion also splits one knot interval, and it changes the segment
functions of only the candidates in that interval. Both spline strategies
carry, for every candidate, the ``(interval, g)`` of ``GBSplineBasis._search``:
its knot-interval index and its 4 segment functions there, function-first as
``(4, m)``. After a refit a candidate whose interval kept both knots keeps
``g`` and has its index shifted; only the candidates of the split interval are
searched again, in one call. No greedy calls ``GBSplineBasis._locate``, so the
bases of a run hold no point set.

The residual is the new interpolant at the remaining candidates, formed from
the carried arrays by ``Interpolant._combine``, the gather and sum of
``Interpolant.__call__``. The Lebesgue strategy carries each candidate's 4
basis values too. It combines them again from the carried ``g`` with
``GBSplineBasis._combine``, as ``active_values`` does, only where the
interval's knots or ``table`` column changed, so every value has the bits a
fresh evaluation would give. The scores are then one ``BandedLU.lebesgue``
call on the refit's factorization: ``||S_i β||_1`` per remaining candidate,
with the interval's Lebesgue table, formed on 16 rows of length m.
"""

from dataclasses import dataclass, field

import numpy as np

from .basis import build_basis
from .diagnostics import cond2, sparsity
from .errors import (InvalidInputError, SplineError, check_integer, check_points, check_values,
                     is_finite_real)
from .interpolate import collocation_matrix, factorize, fit
from .space import ExpSpace


def check_stop_rule(tau: float | None, max_iter: int | None):
    """Type and range checks of the stop rule shared by every greedy run."""
    if tau is not None and not (is_finite_real(tau) and tau >= 0.0):
        raise InvalidInputError(f"tau must be a nonnegative finite real, got {tau!r}")
    if max_iter is not None:
        check_integer("max_iter", max_iter)
        if max_iter < 4:
            raise InvalidInputError(
                f"max_iter must be at least 4, the size of the initial set (the two "
                f"smallest and two largest candidates), got {max_iter}")


def check_candidates(candidates, max_iter: int | None) -> np.ndarray:
    """``check_points`` for the initial set of 4, and at least ``max_iter`` candidates."""
    cand = check_points("candidates", candidates, 4)
    if max_iter is not None and max_iter > len(cand):
        raise InvalidInputError(f"max_iter {max_iter} exceeds candidate count {len(cand)}")
    return cand


@dataclass(frozen=True)
class GreedyConfig:
    """Knobs shared by both selection strategies.

    Selection starts from the two smallest and the two largest candidates.
    ``tau`` absent means run until ``max_iter`` nodes are selected or the
    candidates are exhausted. ``max_iter`` caps the total size of the
    selected set, so it is at least 4.
    """

    alpha: float
    tau: float | None = None
    max_iter: int | None = None

    def __post_init__(self):
        ExpSpace(self.alpha)
        check_stop_rule(self.tau, self.max_iter)


@dataclass(frozen=True)
class GreedyStep:
    """One loop iteration: state diagnostics plus the selection it made.

    ``selected_index`` is None on the terminal record, written when the loop
    decides to stop instead of inserting another point.
    """

    iteration: int
    n_nodes: int
    criterion: float | None
    kappa2: float
    sparsity: float
    selected_index: int | None
    selected_x: float | None


@dataclass
class GreedyTrace:
    steps: list[GreedyStep] = field(default_factory=list)
    stop_reason: str = ""

    def criteria(self) -> np.ndarray:
        return np.array([s.criterion for s in self.steps if s.criterion is not None])

    def sparsity_values(self) -> np.ndarray:
        return np.array([s.sparsity for s in self.steps])

    def selected_indices(self) -> list[int]:
        return [s.selected_index for s in self.steps if s.selected_index is not None]


class GreedyError(SplineError):
    """Numerical failure mid-loop; carries the partial trace."""

    def __init__(self, message: str, trace: GreedyTrace):
        super().__init__(message)
        self.trace = trace


def _greedy_loop(candidates, refit, tau=None, max_iter=None):
    """Insert one candidate per iteration until a stop rule fires.

    The initial set is the two smallest and the two largest candidates,
    indices ``[0, 1, m - 2, m - 1]``. ``refit(selected, remaining)`` fits
    the model on the sorted selected candidate indices and returns ``(state,
    matrix, scores)``: ``matrix`` is the system whose spectral condition and
    sparsity go into the trace (the spline's tridiagonal ``BandedMatrix``,
    never made dense, or the kernel's dense saddle matrix), and ``scores`` is
    the selection criterion at the sorted remaining indices, empty once every
    candidate is selected.
    Ties go to the smallest index when the scores are equal floats (the first
    maximum of ``np.argmax``); a tie that is exact only in exact arithmetic
    is decided by rounding. A ``SplineError`` raised by ``refit`` becomes a
    ``GreedyError`` carrying the trace so far; its message names the
    iteration, the knot inserted just before it and the check that tripped.

    Returns
    -------
    (selected points, state of the last fit, trace)
    """
    cand = check_candidates(candidates, max_iter)
    m = len(cand)
    # the initial set takes the two smallest and the two largest
    in_selected = np.zeros(m, dtype=bool)
    in_selected[[0, 1, m - 2, m - 1]] = True

    trace = GreedyTrace()
    while True:
        selected = np.flatnonzero(in_selected)
        remaining = np.flatnonzero(~in_selected)
        try:
            state, matrix, scores = refit(selected, remaining)
        except SplineError as exc:
            trace.stop_reason = "error"
            where = f"iteration {len(trace.steps)}"
            if trace.steps:
                where += f", after inserting x = {trace.steps[-1].selected_x!r}"
            raise GreedyError(f"{where}: {exc}", trace) from exc
        kappa2 = cond2(matrix)
        frac_zero = sparsity(matrix)
        n_nodes = len(selected)

        criterion = pick = None
        if not len(remaining):
            trace.stop_reason = "exhausted"
        else:
            criterion = float(scores.max())
            if tau is not None and criterion <= tau:
                trace.stop_reason = "tau"
            elif max_iter is not None and n_nodes >= max_iter:
                trace.stop_reason = "max_iter"
            else:
                # ties resolve to the smallest candidate index (first max)
                pick = int(remaining[int(np.argmax(scores))])
        trace.steps.append(GreedyStep(len(trace.steps), n_nodes, criterion, kappa2, frac_zero,
                                      pick, None if pick is None else float(cand[pick])))
        if pick is None:
            return cand[selected], state, trace
        in_selected[pick] = True


def _carried_intervals(prior, basis):
    """Each knot interval of ``prior``: its index in ``basis``, or -1 if a knot of it moved,
    and whether it keeps its ``table`` column too.

    An interval that keeps both knots keeps the segment functions of every
    point in it, bit for bit; one that keeps its column as well keeps the
    point's basis values.
    """
    old, new = prior.knots, basis.knots
    at = np.minimum(np.searchsorted(new, old[:-1]), basis.n - 2)
    kept = (new[at] == old[:-1]) & (new[at + 1] == old[1:])
    same = kept & (basis.table[:, :, at] == prior.table).all(axis=(0, 1))
    return np.where(kept, at, -1), same


def _spline_loop(cand: np.ndarray, config: GreedyConfig, model):
    """Run the loop on the spline over the selected candidates.

    Each basis is built with the previous one as ``prior`` (None at first),
    and its collocation matrix is factorized once, as ``lu``. The carried
    ``interval`` and ``g`` of every candidate (see the module docstring) are
    valid at the remaining indices. ``model(basis, lu, selected, remaining,
    interval, g, stale) -> (state, scores)``, called inside ``refit``,
    supplies the criterion there; ``stale`` are the remaining candidates whose
    interval changed a knot or its ``table`` column.
    """
    space = ExpSpace(config.alpha)
    prior = None
    interval, g = np.empty(cand.size, dtype=np.intp), np.empty((4, cand.size))

    def refit(selected, remaining):
        nonlocal prior
        basis = build_basis(cand[selected], space, prior=prior)
        phi = collocation_matrix(basis)
        lu = factorize(phi)
        moved = stale = remaining
        if prior is not None:
            at, same = _carried_intervals(prior, basis)
            old = interval[remaining]
            interval[remaining] = at[old]
            moved, stale = remaining[at[old] < 0], remaining[~same[old]]
        if len(moved):
            interval[moved], g[:, moved] = basis._search(cand[moved])
        state, scores = model(basis, lu, selected, remaining, interval, g, stale)
        prior = basis
        return state, phi, scores

    return _greedy_loop(cand, refit, config.tau, config.max_iter)


def f_greedy(candidates, values, config: GreedyConfig):
    """Residual-based selection tailored to one sampled target function.

    Parameters
    ----------
    candidates : array_like
        Sorted distinct candidate points containing their own min and max.
    values : array_like
        Finite target function values matching ``candidates``.
    config : GreedyConfig

    Returns
    -------
    (selected, interpolant, trace)
        Sorted selected points, the interpolant on them, and the per-iteration
        trace. On stop reason "tau" the residual over all remaining
        candidates is at most ``config.tau``.
    """
    cand = np.asarray(candidates, dtype=float)
    values = check_values("values", values, cand.size)

    def residual(basis, lu, selected, remaining, interval, g, stale):
        interp = fit(basis, values[selected], lu=lu)
        approx = interp._combine(interval[remaining], np.take(g, remaining, axis=1),
                                 cand[remaining])
        return interp, np.abs(values[remaining] - approx)

    return _spline_loop(cand, config, residual)


def lambda_greedy(candidates, config: GreedyConfig):
    """Lebesgue-function-based selection; consumes no function values.

    The selected sequence is a pure function of the candidate set and the
    configuration, which makes the resulting nodes reusable across target
    functions. Every candidate is scored by the interval's Lebesgue table,
    read from each refit's factorization, applied to its carried basis values.

    Returns
    -------
    (selected, trace)
    """
    cand = np.asarray(candidates, dtype=float)
    values = np.empty((4, cand.size))

    def lebesgue(basis, lu, selected, remaining, interval, g, stale):
        values[:, stale] = basis._combine(interval[stale], np.take(g, stale, axis=1))
        return None, lu.lebesgue(interval[remaining], np.take(values, remaining, axis=1))

    selected, _, trace = _spline_loop(cand, config, lebesgue)
    return selected, trace
