"""Greedy node selection for spline interpolation.

One insertion loop serves every model. The residual-based strategy inserts
the candidate with the largest interpolation residual and therefore adapts to
one target function; the Lebesgue-based strategy inserts the candidate where
the Lebesgue function of the current node set is largest and never looks at
function values, so it yields reusable a-priori node sets. The
thin-plate-spline baseline (``kernel.kernel_f_greedy``) runs the same loop
with its own fit.

Every iteration rebuilds the basis and refactorizes the collocation matrix
from scratch; at the intended scales correctness clarity beats incremental
updates.
"""

from dataclasses import dataclass, field

import numpy as np

from .basis import AugmentedKnots, augment_knots, build_basis
from .diagnostics import cond2, sparsity
from .errors import InvalidInputError, SplineError
from .interpolate import collocation_matrix, factorize, fit, lebesgue_function
from .space import ExpSpace

DEFAULT_INIT_RULE = "two-smallest-and-two-largest"


def check_stop_rule(tau: float | None, max_iter: int | None):
    """Range checks of the stop rule shared by every greedy run."""
    if tau is not None and not (np.isfinite(tau) and tau >= 0.0):
        raise InvalidInputError(f"tau must be nonnegative, got {tau}")
    if max_iter is not None and max_iter < 1:
        raise InvalidInputError(f"max_iter must be positive, got {max_iter}")


@dataclass(frozen=True)
class GreedyConfig:
    """Knobs shared by both selection strategies.

    ``tau`` absent means run until ``max_iter`` nodes are selected or the
    candidates are exhausted. ``max_iter`` caps the total size of the
    selected set. The optional stagnation rule stops once the criterion's
    relative change stays below ``stagnation_rtol`` for ``stagnation_window``
    consecutive iterations. ``freeze_augmented`` keeps the boundary knots
    computed from the initial set instead of re-mirroring each iteration.
    """

    alpha: float
    tau: float | None = None
    max_iter: int | None = None
    init_rule: str | tuple[int, ...] = DEFAULT_INIT_RULE
    stagnation_window: int | None = None
    stagnation_rtol: float = 1e-2
    freeze_augmented: bool = False

    def __post_init__(self):
        check_stop_rule(self.tau, self.max_iter)
        if self.stagnation_window is not None and self.stagnation_window < 1:
            raise InvalidInputError("stagnation_window must be positive")
        if self.stagnation_rtol <= 0.0:
            raise InvalidInputError("stagnation_rtol must be positive")


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
    if cand.ndim != 1 or len(cand) < 2:
        raise InvalidInputError(f"need a 1-d candidate vector of length >= 2, got {cand.shape}")
    if not np.all(np.isfinite(cand)):
        raise InvalidInputError("candidates must be finite")
    if np.any(np.diff(cand) <= 0.0):
        raise InvalidInputError("candidates must be sorted, strictly increasing and distinct")
    return cand


def _initial_indices(m: int, rule: str | tuple[int, ...]) -> list[int]:
    if isinstance(rule, str):
        if rule != DEFAULT_INIT_RULE:
            raise InvalidInputError(f"unknown init rule {rule!r}")
        if m < 4:
            raise InvalidInputError("default init rule needs at least 4 candidates")
        return [0, 1, m - 2, m - 1]
    idx = sorted(set(int(i) for i in rule))
    if len(idx) < 2:
        raise InvalidInputError("explicit initial set needs at least 2 indices")
    if idx[0] != 0 or idx[-1] != m - 1:
        raise InvalidInputError("initial set must contain the smallest and largest candidate")
    if any(i < 0 or i >= m for i in idx):
        raise InvalidInputError("initial index out of range")
    return idx


def _stagnated(history: list[float], window: int | None, rtol: float) -> bool:
    if window is None or len(history) < window + 1:
        return False
    tail = history[-(window + 1):]
    for prev, curr in zip(tail, tail[1:]):
        denom = max(abs(prev), 1e-300)
        if abs(curr - prev) / denom >= rtol:
            return False
    return True


def _greedy_loop(candidates, refit, tau=None, max_iter=None, init_rule=DEFAULT_INIT_RULE,
                 stagnation_window=None, stagnation_rtol=1e-2):
    """Insert one candidate per iteration until a stop rule fires.

    ``refit(selected)`` fits the model on the sorted selected candidate
    indices and returns ``(state, matrix, score)``: ``matrix`` is the dense
    system whose spectral condition and sparsity go into the trace, and
    ``score(remaining)`` is the selection criterion at the remaining indices.
    Ties go to the smallest index. A ``SplineError`` raised by ``refit``
    becomes a ``GreedyError`` carrying the trace so far.

    Returns
    -------
    (selected points, state of the last fit, trace)
    """
    cand = _validated_candidates(candidates)
    m = len(cand)
    if max_iter is not None and max_iter > m:
        raise InvalidInputError(f"max_iter {max_iter} exceeds candidate count {m}")
    in_selected = np.zeros(m, dtype=bool)
    in_selected[_initial_indices(m, init_rule)] = True

    trace = GreedyTrace()
    history: list[float] = []
    while True:
        selected = np.flatnonzero(in_selected)
        try:
            state, matrix, score = refit(selected)
        except SplineError as exc:
            trace.stop_reason = "error"
            raise GreedyError(f"iteration {len(trace.steps)}: {exc}", trace) from exc
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
            history.append(criterion)
            if tau is not None and criterion <= tau:
                trace.stop_reason = "tau"
            elif max_iter is not None and n_nodes >= max_iter:
                trace.stop_reason = "max_iter"
            elif _stagnated(history, stagnation_window, stagnation_rtol):
                trace.stop_reason = "stagnation"
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
    With ``freeze_augmented`` the mirrored end knots of the initial set stay
    in place for every later fit.
    """
    space = ExpSpace(config.alpha)
    frozen = None

    def refit(selected):
        nonlocal frozen
        knots = augment_knots(cand[selected])
        if config.freeze_augmented:
            frozen = knots.extended if frozen is None else frozen
            knots = AugmentedKnots(
                interior=knots.interior,
                extended=np.concatenate([frozen[:2], knots.interior, frozen[-2:]]),
            )
        basis = build_basis(knots, space)
        phi = collocation_matrix(basis)
        lu = factorize(phi)
        state, score = model(basis, lu, selected)
        return state, phi.to_dense(), score

    return _greedy_loop(cand, refit, config.tau, config.max_iter, config.init_rule,
                        config.stagnation_window, config.stagnation_rtol)


def f_greedy(candidates, values, config: GreedyConfig):
    """Residual-based selection tailored to one sampled target function.

    Parameters
    ----------
    candidates : array_like
        Sorted distinct candidate points containing their own min and max.
    values : array_like
        Target function values matching ``candidates``.
    config : GreedyConfig

    Returns
    -------
    (selected, interpolant, trace)
        Sorted selected points, the interpolant on them, and the per-iteration
        trace. On stop reason "tau" the residual over all remaining
        candidates is at most ``config.tau``.
    """
    cand = np.asarray(candidates, dtype=float)
    values = np.asarray(values, dtype=float)
    if values.shape != cand.shape:
        raise InvalidInputError(f"values must match candidates, got shape {values.shape}")

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
