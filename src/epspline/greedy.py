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
assembled and factorized from scratch every iteration.
"""

from dataclasses import dataclass, field

import numpy as np

from .basis import augment_knots, build_basis
from .diagnostics import cond2, sparsity
from .errors import InvalidInputError, SplineError, check_integer
from .interpolate import collocation_matrix, factorize, fit, lebesgue_function
from .space import ExpSpace


def check_stop_rule(tau: float | None, max_iter: int | None):
    """Type and range checks of the stop rule shared by every greedy run."""
    if tau is not None and not (np.isfinite(tau) and tau >= 0.0):
        raise InvalidInputError(f"tau must be nonnegative, got {tau}")
    if max_iter is not None:
        check_integer("max_iter", max_iter)
        if max_iter < 4:
            raise InvalidInputError(
                f"max_iter must be at least 4, the size of the initial set (the two "
                f"smallest and two largest candidates), got {max_iter}")


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


def _validated_candidates(candidates) -> np.ndarray:
    cand = np.asarray(candidates, dtype=float)
    if cand.ndim != 1 or len(cand) < 4:
        # the initial set takes the two smallest and the two largest
        raise InvalidInputError(f"need a 1-d candidate vector of length >= 4, got {cand.shape}")
    if not np.all(np.isfinite(cand)):
        raise InvalidInputError("candidates must be finite")
    if np.any(np.diff(cand) <= 0.0):
        raise InvalidInputError("candidates must be sorted, strictly increasing and distinct")
    return cand


def _validated_values(values, cand: np.ndarray) -> np.ndarray:
    vals = np.asarray(values, dtype=float)
    if vals.shape != cand.shape:
        raise InvalidInputError(f"values must match candidates, got shape {vals.shape}")
    if not np.all(np.isfinite(vals)):
        raise InvalidInputError("values must be finite")
    return vals


def _greedy_loop(candidates, refit, tau=None, max_iter=None):
    """Insert one candidate per iteration until a stop rule fires.

    The initial set is the two smallest and the two largest candidates,
    indices ``[0, 1, m - 2, m - 1]``. ``refit(selected)`` fits the model on
    the sorted selected candidate indices and returns ``(state, matrix,
    score)``: ``matrix`` is the system whose spectral condition and sparsity
    go into the trace (the spline's tridiagonal ``BandedMatrix``, never made
    dense, or the kernel's dense saddle matrix), and ``score(remaining)`` is
    the selection criterion at the remaining indices.
    Ties go to the smallest index. A ``SplineError`` raised by ``refit``
    becomes a ``GreedyError`` carrying the trace so far; its message names the
    iteration, the knot inserted just before it and the check that tripped.

    Returns
    -------
    (selected points, state of the last fit, trace)
    """
    cand = _validated_candidates(candidates)
    m = len(cand)
    if max_iter is not None and max_iter > m:
        raise InvalidInputError(f"max_iter {max_iter} exceeds candidate count {m}")
    in_selected = np.zeros(m, dtype=bool)
    in_selected[[0, 1, m - 2, m - 1]] = True

    trace = GreedyTrace()
    while True:
        selected = np.flatnonzero(in_selected)
        try:
            state, matrix, score = refit(selected)
        except SplineError as exc:
            trace.stop_reason = "error"
            where = f"iteration {len(trace.steps)}"
            if trace.steps:
                where += f", after inserting x = {trace.steps[-1].selected_x!r}"
            raise GreedyError(f"{where}: {exc}", trace) from exc
        kappa2 = cond2(matrix)
        frac_zero = sparsity(matrix)
        n_nodes = len(selected)
        remaining = np.flatnonzero(~in_selected)

        criterion = pick = None
        if len(remaining) == 0:
            trace.stop_reason = "exhausted"
        else:
            scores = score(remaining)
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

    ``model(basis, lu, selected) -> (state, score)`` supplies the criterion.
    Each basis is built with the previous one as ``prior``, so only the
    functions an insertion changed are solved again.
    """
    space = ExpSpace(config.alpha)
    prior = None

    def refit(selected):
        nonlocal prior
        basis = prior = build_basis(augment_knots(cand[selected]), space, prior=prior)
        phi = collocation_matrix(basis)
        lu = factorize(phi)
        state, score = model(basis, lu, selected)
        return state, phi, score

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
    values = _validated_values(values, cand)

    def residual(basis, lu, selected):
        interp = fit(basis, values[selected], lu=lu)
        return interp, lambda rest: np.abs(values[rest] - interp(cand[rest]))

    return _spline_loop(cand, config, residual)


def lambda_greedy(candidates, config: GreedyConfig):
    """Lebesgue-function-based selection; consumes no function values.

    The selected sequence is a pure function of the candidate set and the
    configuration, which makes the resulting nodes reusable across target
    functions.

    Returns
    -------
    (selected, trace)
    """
    cand = np.asarray(candidates, dtype=float)

    def lebesgue(basis, lu, selected):
        return None, lambda rest: lebesgue_function(basis, lu, cand[rest])

    selected, _, trace = _spline_loop(cand, config, lebesgue)
    return selected, trace
