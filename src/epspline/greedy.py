"""Greedy node selection for spline interpolation.

One insertion loop serves every model. The residual-based strategy inserts
the candidate with the largest interpolation residual and therefore adapts to
one target function; the Lebesgue-based strategy inserts the candidate where
the Lebesgue function of the current node set is largest and never looks at
function values, so it yields reusable a-priori node sets. The
thin-plate-spline baseline (``kernel.kernel_f_greedy``) runs the same loop
with its own fit.

An insertion changes only the five basis functions whose support holds the
new knot, and it splits one knot interval. The loop knows where: at ``q``,
the first index where the sorted selected indices differ from the previous
ones. So each spline refit after the first splices the knot into the
previous basis with ``basis._inserted``, which solves only functions ``q - 2
.. q + 2``. The collocation matrix is still assembled and factorized from
scratch every iteration, once for both models. The loop hands each refit the
selected and the remaining candidate indices, and the refit returns its
scores at the remaining ones.

Both spline strategies carry, for every candidate, the ``(interval, g)`` of
``GBSplineBasis._search``: its knot-interval index and its 4 segment
functions there, function-first as ``(4, m)``. A candidate in old interval
``o`` keeps ``g`` and moves to interval ``o + (o >= q)``; only those of the
split interval ``q - 1`` are searched again, in one call. No greedy calls
``GBSplineBasis._locate``, so the bases of a run hold no point set.

The residual is the new interpolant at the remaining candidates, formed from
the carried arrays by ``Interpolant._combine``, the gather and sum of
``Interpolant.__call__``. The Lebesgue strategy carries each candidate's 4
basis values too. It combines them again from the carried ``g`` with
``GBSplineBasis._combine``, as ``active_values`` does, only in old intervals
``q - 4 .. q + 2``, whose ``table`` columns hold a solved function. So every
value has the bits a fresh evaluation would give. The scores are then one
``BandedLU.lebesgue`` call on the refit's factorization: ``||S_i β||_1`` per
remaining candidate, with the interval's Lebesgue table, formed on 16 rows of
length m.
"""

from dataclasses import dataclass, field

import numpy as np

from .basis import _inserted, build_basis
from .diagnostics import cond2, sparsity
from .errors import (InvalidInputError, SplineError, as_real_array, check_integer, check_points,
                     check_values, is_finite_real)
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


def _spline_loop(cand: np.ndarray, config: GreedyConfig, model):
    """Run the loop on the spline over the selected candidates.

    The first basis is built from scratch, each later one ``_inserted`` into the
    previous one (see the module docstring); its collocation matrix is factorized
    once, as ``lu``. The carried ``interval`` and ``g`` of every candidate are valid
    at the remaining indices. ``model(basis, lu, selected, remaining, interval, g,
    stale) -> (state, scores)``, called inside ``refit``, supplies the criterion
    there; ``stale`` are the remaining candidates whose interval's ``table`` column
    changed.
    """
    space = ExpSpace(config.alpha)
    prior = last = None
    interval, g = np.empty(cand.size, dtype=np.intp), np.empty((4, cand.size))

    def refit(selected, remaining):
        nonlocal prior, last
        moved = stale = remaining
        if prior is None:
            basis = build_basis(cand[selected], space)
        else:
            q = int(np.argmin(selected[:-1] == last))
            basis = _inserted(prior, q, cand[selected[q]])
            old = interval[remaining]  # q - 1 is split; q - 4 .. q + 2 hold a solved function
            moved, stale = remaining[old == q - 1], remaining[np.abs(old - (q - 1)) <= 3]
            interval[remaining] = old + (old >= q)
        if len(moved):
            interval[moved], g[:, moved] = basis._search(cand[moved])
        phi = collocation_matrix(basis)
        lu = factorize(phi)
        state, scores = model(basis, lu, selected, remaining, interval, g, stale)
        prior, last = basis, selected
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
    cand = as_real_array("candidates", candidates)
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
    cand = as_real_array("candidates", candidates)
    values = np.empty((4, cand.size))

    def lebesgue(basis, lu, selected, remaining, interval, g, stale):
        values[:, stale] = basis._combine(interval[stale], np.take(g, stale, axis=1))
        return None, lu.lebesgue(interval[remaining], np.take(values, remaining, axis=1))

    selected, _, trace = _spline_loop(cand, config, lebesgue)
    return selected, trace
