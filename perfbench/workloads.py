"""The three workloads: inputs from a seed, one timed pass, and its checks.

Each workload times only the calls into epspline, through a ``Section``
passed in by the runner; everything the benchmark does to check the outputs
happens outside those sections (and outside any tracing).

- ``paper_suite``: ``epspline reproduce-all`` through ``cli.main``, the 12
  runs of the paper at n <= 300. Its inputs do not depend on the seed.
- ``lgreedy_wide``: ``lambda_greedy`` on 10 000 jittered equispaced
  candidates up to 150 nodes; data-independent selection at scale.
- ``fit_eval``: one basis and factorization on 1 000 Chebyshev-Lobatto
  nodes, reused for 64 fits, each evaluated on 100 000 points.
"""

import contextlib
import csv
import io
import json
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
REFERENCES = HERE / "references.json"

import epspline  # noqa: E402  (the runner puts SRC first on sys.path)

if not Path(epspline.__file__).resolve().is_relative_to(SRC.resolve()):
    raise ImportError(f"epspline was imported from {epspline.__file__}, not from {SRC}")

from epspline import cli, greedy, interpolate, nodes  # noqa: E402
from epspline import basis as basis_mod  # noqa: E402

# Relative tolerances of the numeric checks. kappa2 is looser because a
# banded or SVD-free condition estimate may move its last digits.
RTOL_CRITERION = 1e-8   # greedy criteria, Lebesgue maxima
RTOL_KAPPA2 = 1e-6
RTOL_ERROR = 1e-6       # interpolation errors on the evaluation grid
NODE_REPRODUCTION_RTOL = 1e-10  # |I(x_i) - y_i| relative to max |y|

ALPHA = 2.0
WIDE_CANDIDATES = 10_000
WIDE_MAX_ITER = 150
WIDE_JITTER = 0.4        # fraction of the spacing h; keeps every gap >= 0.2 h
# The selection sequence is checked against a stored reference, and a
# reference can be stored only for a finite set of inputs: the seed picks one
# of these jitter variants.
WIDE_VARIANTS = 16
FIT_NODES = 1_000
FIT_TARGETS = 64
FIT_GRID = 100_000
# atan(k x) frequencies; the seed picks FIT_TARGETS of them, and the stored
# reference holds the grid error of every one.
FIT_K_TABLE = np.linspace(1.0, 60.0, 256)


def rel_close(a, b, rtol):
    if a is None or b is None:
        return a is None and b is None
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= rtol * np.abs(b)))


@dataclass
class PassResult:
    """One pass: operations attempted and failed, and the work it did."""

    attempted: int
    failed: int = 0
    points: int = 0      # spline evaluation points
    inserts: int = 0     # greedy insertions
    problems: list = field(default_factory=list)


def load_references():
    return json.loads(REFERENCES.read_text())


# ---------------------------------------------------------------------------
# paper_suite

def _read_csv(path: Path):
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def _floats(rows, key):
    return [float(r[key]) if r[key] != "" else None for r in rows]


def suite_outputs(run_dir: Path) -> dict:
    """The checked outputs of one CLI run directory, in reference form."""
    summary = json.loads((run_dir / "summary.json").read_text())
    out = {
        "status": summary["status"],
        "algorithm": summary["algorithm"],
        "n_selected": summary["n_selected"],
        "lebesgue_constant": summary["lebesgue_constant"],
        "kappa2": summary["kappa2"],
        "candidates": int(summary["config"]["nodes"].split(":")[1]),
        "grid_points": len(_read_csv(run_dir / "lebesgue.csv")),
    }
    if (run_dir / "trace.csv").exists():
        trace = _read_csv(run_dir / "trace.csv")
        errors = _floats(_read_csv(run_dir / "error.csv"), "abs_error")
        out.update(
            stop_reason=summary["stop_reason"],
            final_criterion=summary["final_criterion"],
            selected_x=[x for x in _floats(trace, "selected_x") if x is not None],
            criteria=[c for c in _floats(trace, "criterion") if c is not None],
            trace_kappa2=_floats(trace, "kappa2"),
            max_error=max(errors),
            error_points=len(errors),
        )
    return out


def suite_problems(got: dict, ref: dict) -> list:
    problems = []
    for key in ("status", "n_selected", "stop_reason", "selected_x"):
        if got.get(key) != ref.get(key):
            problems.append(f"{key} differs from the reference")
    for key, rtol in (("lebesgue_constant", RTOL_CRITERION), ("kappa2", RTOL_KAPPA2),
                      ("final_criterion", RTOL_CRITERION), ("criteria", RTOL_CRITERION),
                      ("trace_kappa2", RTOL_KAPPA2), ("max_error", RTOL_ERROR)):
        if key in ref and not rel_close(got.get(key), ref[key], rtol):
            problems.append(f"{key} outside rtol {rtol:g} of the reference")
    return problems


def suite_points(got: dict) -> int:
    """Points at which a spline, its Lebesgue function or the kernel model was
    evaluated: candidates scored per greedy step plus the output grids."""
    points = got["grid_points"] + got.get("error_points", 0)
    n_picks_after = len(got.get("selected_x", []))
    for _ in got.get("criteria", []):
        n_nodes = got["n_selected"] - n_picks_after
        points += got["candidates"] - n_nodes
        n_picks_after -= 1
    return points


class PaperSuite:
    """``epspline reproduce-all`` through ``cli.main``; one operation is one CLI run."""

    def setup(self, seed):
        return {"references": load_references()["paper_suite"]}

    def attempts(self, inputs):
        return len(inputs["references"])

    def run(self, inputs, section, scratch: Path) -> PassResult:
        refs = inputs["references"]
        result = PassResult(attempted=len(refs))
        out = Path(tempfile.mkdtemp(prefix="suite-", dir=scratch))
        try:
            with contextlib.redirect_stdout(io.StringIO()), section:
                code = cli.main(["reproduce-all", "--out", str(out)])
            if code != 0:
                result.failed = result.attempted
                result.problems.append(f"reproduce-all exited with {code}")
                return result
            for name, ref in refs.items():
                got = suite_outputs(out / name)
                problems = suite_problems(got, ref)
                if problems:
                    result.failed += 1
                    result.problems.extend(f"{name}: {p}" for p in problems)
                result.points += suite_points(got)
                if got["algorithm"] in ("fgreedy", "lgreedy"):
                    result.inserts += len(got["selected_x"])
        finally:
            shutil.rmtree(out, ignore_errors=True)
        return result


# ---------------------------------------------------------------------------
# lgreedy_wide

def wide_candidates(variant: int) -> np.ndarray:
    x = nodes.equispaced(WIDE_CANDIDATES)
    h = 2.0 / (WIDE_CANDIDATES - 1)
    rng = np.random.default_rng(variant)
    x[1:-1] += rng.uniform(-WIDE_JITTER * h, WIDE_JITTER * h, WIDE_CANDIDATES - 2)
    return x


def wide_config():
    return greedy.GreedyConfig(alpha=ALPHA, max_iter=WIDE_MAX_ITER)


def wide_outputs(selected, trace) -> dict:
    return {
        "n_selected": len(selected),
        "stop_reason": trace.stop_reason,
        "picks": trace.selected_indices(),
        "criteria": trace.criteria().tolist(),
        "kappa2": trace.steps[-1].kappa2,
    }


def tie_problems() -> list:
    """Zero data makes every residual tie at 0, so each insertion must take the
    smallest remaining index. The workloads' own scores have no exact ties."""
    cand = np.linspace(-1.0, 1.0, 32)
    _, _, trace = greedy.f_greedy(cand, np.zeros_like(cand),
                                  greedy.GreedyConfig(alpha=ALPHA, max_iter=12))
    if trace.selected_indices() != list(range(2, 10)):
        return ["tied scores do not go to the smallest index"]
    return []


class LGreedyWide:
    """``lambda_greedy`` on 10 000 candidates; one operation is the greedy run."""

    def setup(self, seed):
        variant = seed % WIDE_VARIANTS
        return {"candidates": wide_candidates(variant),
                "reference": load_references()["lgreedy_wide"][variant]}

    def attempts(self, inputs):
        return 1

    def run(self, inputs, section, scratch: Path) -> PassResult:
        cand = inputs["candidates"]
        with section:
            selected, trace = greedy.lambda_greedy(cand, wide_config())
        got = wide_outputs(selected, trace)
        ref = inputs["reference"]
        result = PassResult(attempted=1, inserts=len(got["picks"]))
        result.points = sum(len(cand) - s.n_nodes for s in trace.steps
                            if s.criterion is not None)
        for key in ("n_selected", "stop_reason", "picks"):
            if got[key] != ref[key]:
                result.problems.append(f"{key} differs from the reference")
        for key, rtol in (("criteria", RTOL_CRITERION), ("kappa2", RTOL_KAPPA2)):
            if not rel_close(got[key], ref[key], rtol):
                result.problems.append(f"{key} outside rtol {rtol:g} of the reference")
        result.problems += tie_problems()
        result.failed = int(bool(result.problems))
        return result


# ---------------------------------------------------------------------------
# fit_eval

def fit_grid():
    return np.linspace(-1.0, 1.0, FIT_GRID)


def fit_target(k):
    return lambda x: np.arctan(k * x)


class FitEval:
    """64 fits through one factorization; one operation is a fit and its evaluation."""

    def setup(self, seed):
        x = nodes.chebyshev_lobatto(FIT_NODES)
        rng = np.random.default_rng(seed)
        table_index = np.sort(rng.choice(len(FIT_K_TABLE), FIT_TARGETS, replace=False))
        return {
            "nodes": x,
            "grid": fit_grid(),
            "table_index": table_index,
            "data": [fit_target(FIT_K_TABLE[i])(x) for i in table_index],
            "reference": np.asarray(load_references()["fit_eval"]["max_error"]),
        }

    def attempts(self, inputs):
        return FIT_TARGETS

    def run(self, inputs, section, scratch: Path) -> PassResult:
        x, grid = inputs["nodes"], inputs["grid"]
        result = PassResult(attempted=FIT_TARGETS)
        with section:
            basis = basis_mod.build_basis(x, epspline.ExpSpace(ALPHA))
            lu = interpolate.factorize(interpolate.collocation_matrix(basis))
        for i, y in zip(inputs["table_index"], inputs["data"]):
            with section:
                interp = interpolate.fit(basis, y, lu=lu)
                values = interp(grid)
            result.points += len(grid)
            problems = fit_problems(interp, x, y, grid, values, FIT_K_TABLE[i],
                                    inputs["reference"][i])
            if problems:
                result.failed += 1
                result.problems.extend(f"k={FIT_K_TABLE[i]:.6g}: {p}" for p in problems)
        return result


def fit_max_error(grid, values, k) -> float:
    return float(np.abs(fit_target(k)(grid) - values).max())


def reproduces_data(interp, x, y) -> bool:
    scale = max(1.0, float(np.abs(y).max()))
    return bool(np.abs(interp(x) - y).max() <= NODE_REPRODUCTION_RTOL * scale)


def fit_problems(interp, x, y, grid, values, k, ref_error) -> list:
    problems = []
    if not reproduces_data(interp, x, y):
        problems.append("does not reproduce its data at the nodes")
    if not rel_close(fit_max_error(grid, values, k), ref_error, RTOL_ERROR):
        problems.append(f"grid error outside rtol {RTOL_ERROR:g} of the reference")
    return problems


WORKLOADS = {"paper_suite": PaperSuite(), "lgreedy_wide": LGreedyWide(), "fit_eval": FitEval()}
