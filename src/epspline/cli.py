"""Experiment runner: greedy selections, Lebesgue scans, node generation.

Each subcommand has a flag for each setting it reads (``SUBCOMMANDS``) and no
other; a greedy run with --tau 0 runs to --max-iter. A run writes CSV traces
(the contract: deterministic, floats at 17 significant digits), SVG charts
(best-effort presentation) and summary.json, whose config holds the tau and
--fn target the run used. Exit codes: 0 success, 1 invalid input, 2 numerical
failure.
"""

import argparse
import collections
import dataclasses
import json
import sys
import time
from pathlib import Path

import numpy as np

from .basis import build_basis
from .diagnostics import cond2, sparsity
from .errors import InvalidInputError, SplineError, check_integer
from .greedy import (
    GreedyConfig,
    GreedyError,
    GreedyTrace,
    check_candidates,
    check_stop_rule,
    f_greedy,
    lambda_greedy,
)
from .interpolate import Interpolant, collocation_matrix, factorize, fit
from .kernel import kernel_f_greedy
from .nodes import NodeSpec, generate
from .space import ExpSpace


# ---------------------------------------------------------------------------
# configuration

# per experiment subcommand: the ExperimentConfig settings it reads, each one a
# flag, and the tau and --fn target it uses when none is given
Subcommand = collections.namedtuple("Subcommand", "reads tau fn", defaults=(None, None))

GREEDY_READS = ("nodes", "fn", "alpha", "tau", "max_iter", "grid", "out")
SUBCOMMANDS = {
    "fgreedy": Subcommand(GREEDY_READS, tau=1e-3, fn="atan55"),
    "lgreedy": Subcommand(GREEDY_READS, tau=3.0, fn="xsq"),
    "kernel": Subcommand(GREEDY_READS, fn="xsq"),
    "lebesgue": Subcommand(("nodes", "alpha", "grid", "out")),
    "nodes": Subcommand(("nodes", "out")),
}


@dataclasses.dataclass
class ExperimentConfig:
    algorithm: str
    nodes: str = "equispaced:300"
    fn: str | None = None
    alpha: float = 2.0
    tau: float | None = None
    max_iter: int | None = None
    grid: int = 400
    out: str = "out"

    def validate(self) -> "ExperimentConfig":
        """Check every setting; return it with the subcommand's tau and fn where unset."""
        if self.algorithm not in SUBCOMMANDS:
            raise InvalidInputError(f"algorithm must be one of {tuple(SUBCOMMANDS)}")
        sub = SUBCOMMANDS[self.algorithm]
        for field in dataclasses.fields(self)[1:]:  # every setting but algorithm
            if field.name not in sub.reads and getattr(self, field.name) != field.default:
                raise InvalidInputError(f"{self.algorithm} does not read {field.name}")
        parse_node_spec(self.nodes)
        if self.fn is not None and self.fn not in TARGETS \
                and not self.fn.startswith("tab:"):
            raise InvalidInputError(
                f"fn must be one of {tuple(TARGETS)} or tab:PATH, got {self.fn!r}"
            )
        ExpSpace(self.alpha)
        check_integer("grid", self.grid)
        if self.grid < 2:
            raise InvalidInputError(f"grid must have at least 2 points, got {self.grid}")
        check_stop_rule(self.tau, self.max_iter)
        return dataclasses.replace(self, tau=sub.tau if self.tau is None else self.tau,
                                   fn=sub.fn if self.fn is None else self.fn)


def parse_node_spec(text: str) -> NodeSpec:
    """Parse 'kind:count' (interval fixed to [-1, 1])."""
    parts = text.split(":")
    if len(parts) != 2:
        raise InvalidInputError(f"node spec must look like kind:count, got {text!r}")
    kind, count = parts
    try:
        count = int(count)
    except ValueError as exc:
        raise InvalidInputError(f"bad node count in {text!r}") from exc
    return NodeSpec(kind=kind, count=count)


def _make_dir(path: Path):
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise InvalidInputError(f"cannot create output directory {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# deterministic writers

def _write_text(path: Path, text: str):
    """Every output file is written here: a path the run cannot write is invalid input."""
    try:
        path.write_text(text)
    except OSError as exc:
        raise InvalidInputError(f"cannot write {path}: {exc}") from exc


def fmt(value) -> str:
    if value is None or (isinstance(value, float) and np.isnan(value)):
        return ""
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def write_csv(path: Path, header: list[str], rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(fmt(v) for v in row))
    _write_text(path, "\n".join(lines) + "\n")


def _svg_scale(vals, lo_px, hi_px, logscale=False):
    v = np.asarray(vals, dtype=float)
    if logscale:
        v = np.log10(np.maximum(v, 1e-300))
    vmin, vmax = float(v.min()), float(v.max())
    if vmax - vmin < 1e-300:
        vmax = vmin + 1.0
    return lo_px + (v - vmin) / (vmax - vmin) * (hi_px - lo_px), vmin, vmax


def write_svg_chart(path: Path, xs, ys, title: str, logy: bool = False,
                    scatter: bool = False):
    """One polyline (or dot row) on a fixed 640x400 canvas. Deterministic."""
    w, h, ml, mr, mt, mb = 640, 400, 60, 20, 30, 40
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    px, xmin, xmax = _svg_scale(xs, ml, w - mr)
    py, ymin, ymax = _svg_scale(ys, h - mb, mt, logscale=logy)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}">',
        f'<rect width="{w}" height="{h}" fill="white"/>',
        f'<text x="{ml}" y="20" font-family="monospace" font-size="14">{title}</text>',
        f'<rect x="{ml}" y="{mt}" width="{w - ml - mr}" height="{h - mt - mb}" '
        'fill="none" stroke="black"/>',
    ]
    if scatter:
        for x, y in zip(px, py):
            parts.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="3" fill="black"/>')
    else:
        coords = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(px, py))
        parts.append(f'<polyline points="{coords}" fill="none" stroke="blue"/>')
    ylab = ("log10 " if logy else "") + "y"
    parts.append(f'<text x="5" y="{mt + 10}" font-family="monospace" font-size="11">'
                 f'{ymax:.3g}</text>')
    parts.append(f'<text x="5" y="{h - mb}" font-family="monospace" font-size="11">'
                 f'{ymin:.3g}</text>')
    parts.append(f'<text x="{ml}" y="{h - 10}" font-family="monospace" font-size="11">'
                 f'{xmin:.3g}</text>')
    parts.append(f'<text x="{w - mr - 40}" y="{h - 10}" font-family="monospace" '
                 f'font-size="11">{xmax:.3g}</text>')
    parts.append(f'<text x="5" y="{mt - 8}" font-family="monospace" font-size="11">'
                 f'{ylab}</text>')
    parts.append("</svg>")
    _write_text(path, "\n".join(parts) + "\n")


def write_trace_csv(path: Path, trace: GreedyTrace):
    rows = [
        (s.iteration, s.selected_x, s.criterion, s.kappa2, s.sparsity) for s in trace.steps
    ]
    write_csv(path, ["iter", "selected_x", "criterion", "kappa2", "sparsity"], rows)


# ---------------------------------------------------------------------------
# target functions

def _inspace(cfg: ExperimentConfig, candidates: np.ndarray) -> Interpolant:
    """One fixed random spline on the candidates: its coefficients are drawn from seed 0."""
    basis = build_basis(candidates, ExpSpace(cfg.alpha))
    return Interpolant(basis, np.random.default_rng(0).standard_normal(basis.n))


# --fn target id -> maker(cfg, candidates) of the target, a callable on float
# arrays; tab:PATH, read from a file, is the only other target
TARGETS = {
    "atan55": lambda cfg, candidates: lambda x: np.arctan(55.0 * x),
    "xsq": lambda cfg, candidates: lambda x: x ** 2,
    "inspace": _inspace,
}


def resolve_function(cfg: ExperimentConfig, candidates: np.ndarray, tabulated):
    """Return (callable, values at candidates) for the target of the validated config.

    A tabulated target is known only at the candidates: its callable is None,
    and ``tabulated`` holds its values there from ``_tabulated_values`` (None
    for any other target).
    """
    if cfg.fn.startswith("tab:"):
        return None, tabulated
    f = TARGETS[cfg.fn](cfg, candidates)
    return f, np.asarray(f(candidates), dtype=float)


def _read_tabulated(path: str) -> tuple[np.ndarray, np.ndarray]:
    """The file's finite x and y columns, sorted by x."""
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidInputError(f"cannot read {path}: {exc}") from exc
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.lower().startswith("x,"):
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise InvalidInputError(f"{path}:{lineno}: expected x,y")
        try:
            rows.append((float(parts[0]), float(parts[1])))
        except ValueError as exc:
            raise InvalidInputError(f"{path}:{lineno}: non-numeric x,y") from exc
        if not np.all(np.isfinite(rows[-1])):
            raise InvalidInputError(f"{path}:{lineno}: non-finite x,y")
    xs = np.array([r[0] for r in rows])
    ys = np.array([r[1] for r in rows])
    order = np.argsort(xs)
    return xs[order], ys[order]


def _tabulated_values(tabulated, candidates: np.ndarray) -> np.ndarray:
    """The y values read by ``_read_tabulated``, in candidate order.

    Its x values must be the candidates.
    """
    xs, ys = tabulated
    if len(xs) != len(candidates):
        raise InvalidInputError(
            f"tabulated function has {len(xs)} rows but there are "
            f"{len(candidates)} candidates; supply matching data"
        )
    if not np.allclose(xs, candidates, rtol=0.0, atol=1e-12):
        raise InvalidInputError("tabulated abscissas do not match the candidate set")
    return ys


# ---------------------------------------------------------------------------
# experiment driver

def _sized(make, *args):
    """``make(*args)``, sized by the user: a size numpy or the host can't hold is invalid input."""
    try:
        return make(*args)
    except SplineError:
        raise
    except (ValueError, MemoryError) as exc:
        raise InvalidInputError(f"size too large: {exc}") from exc


def run_experiment(cfg: ExperimentConfig) -> dict:
    """Run one experiment, write its artifact files, return the summary dict."""
    cfg = cfg.validate()
    t0 = time.perf_counter()
    # the candidates, checked against the greedy loop's rule, a tab: file read
    # once and matched to them, and the evaluation grid come first, so that
    # bad input fails before the output directory is made
    candidates = _sized(generate, parse_node_spec(cfg.nodes))
    if "max_iter" in SUBCOMMANDS[cfg.algorithm].reads:
        check_candidates(candidates, cfg.max_iter)
    tabulated = eval_grid = None
    if cfg.fn and cfg.fn.startswith("tab:"):
        tabulated = _tabulated_values(_read_tabulated(cfg.fn[4:]), candidates)
    if "grid" in SUBCOMMANDS[cfg.algorithm].reads:
        eval_grid = _sized(np.linspace, candidates[0], candidates[-1], cfg.grid)
    out = Path(cfg.out)
    _make_dir(out)
    summary = {"status": "FAILED", "algorithm": cfg.algorithm, "config": dataclasses.asdict(cfg)}
    try:
        summary.update(_dispatch(cfg, out, candidates, tabulated, eval_grid), status="ok")
    except SplineError as exc:
        if isinstance(exc, GreedyError):
            write_trace_csv(out / "trace.csv", exc.trace)
            summary["stop_reason"] = exc.trace.stop_reason
        summary["wall_time_s"] = time.perf_counter() - t0
        _write_summary(out, summary)
        raise
    summary["wall_time_s"] = time.perf_counter() - t0
    _write_summary(out, summary)
    return summary


def _write_summary(out: Path, summary: dict):
    _write_text(out / "summary.json",
                json.dumps(summary, indent=2, sort_keys=True, default=float) + "\n")


def _dispatch(cfg: ExperimentConfig, out: Path, candidates: np.ndarray, tabulated,
              eval_grid) -> dict:
    if cfg.algorithm == "nodes":
        write_csv(out / "selected.csv", ["x"], [(float(x),) for x in candidates])
        write_svg_chart(out / "plot_selected.svg", candidates,
                        np.zeros_like(candidates), "generated nodes", scatter=True)
        return {"n_selected": len(candidates)}

    # selection: a scan keeps every candidate and has no trace or predictor
    selected, trace, predict = candidates, None, None
    if cfg.algorithm != "lebesgue":
        f, values = resolve_function(cfg, candidates, tabulated)
        if cfg.algorithm == "kernel":
            selected, predict, trace = kernel_f_greedy(candidates, values, tau=cfg.tau,
                                                       max_iter=cfg.max_iter)
        else:
            greedy_cfg = GreedyConfig(alpha=cfg.alpha, tau=cfg.tau, max_iter=cfg.max_iter)
            if cfg.algorithm == "fgreedy":
                selected, predict, trace = f_greedy(candidates, values, greedy_cfg)
            else:
                selected, trace = lambda_greedy(candidates, greedy_cfg)

    # the spline on the selected nodes, for every algorithm (the kernel's too), factored once
    basis = build_basis(selected, ExpSpace(cfg.alpha))
    phi = collocation_matrix(basis)
    lu = factorize(phi)
    lam = lu.lebesgue(*basis.active_values(eval_grid))
    write_csv(out / "selected.csv", ["x"], [(float(x),) for x in selected])
    write_csv(out / "lebesgue.csv", ["x", "lebesgue"],
              zip(eval_grid.tolist(), lam.tolist()))
    title = "nodes" if trace is None else f"{cfg.algorithm} selected nodes"
    write_svg_chart(out / "plot_selected.svg", selected, np.zeros_like(selected),
                    title, scatter=True)
    write_svg_chart(out / "plot_lebesgue.svg", eval_grid, lam, "lebesgue function")
    summary = {
        "n_selected": len(selected),
        "lebesgue_constant": float(lam.max()),
        "kappa2": cond2(phi),
        "sparsity": sparsity(phi),
    }
    if trace is None:
        return summary

    if predict is None:
        predict = fit(basis, values[np.searchsorted(candidates, selected)], lu=lu)
    write_trace_csv(out / "trace.csv", trace)
    # a tabulated target is known only at the candidates
    err_grid, target = (candidates, values) if f is None else (eval_grid, f(eval_grid))
    abs_err = np.abs(np.asarray(target, dtype=float) - predict(err_grid))
    write_csv(out / "error.csv", ["x", "abs_error"],
              zip(err_grid.tolist(), abs_err.tolist()))
    write_svg_chart(out / "plot_error.svg", err_grid, abs_err, "absolute error")
    crit = trace.criteria()
    if len(crit):
        write_svg_chart(out / "plot_trace.svg", np.arange(len(crit)), crit,
                        "selection criterion per iteration", logy=True)
    summary["final_criterion"] = trace.steps[-1].criterion
    summary["stop_reason"] = trace.stop_reason
    return summary


# ---------------------------------------------------------------------------
# reproduce-all

# the paper's three experiments on each node family, then its saturation trace
# and its spline-against-kernel comparison
REPRODUCE_RUNS = [
    (f"{name}_{kind}", dict(settings, nodes=f"{kind}:{count}"))
    for name, count, settings in (
        ("lebesgue_scan", 8, dict(algorithm="lebesgue")),
        ("fgreedy_atan", 300, dict(algorithm="fgreedy", fn="atan55", tau=1e-3)),
        ("lgreedy", 300, dict(algorithm="lgreedy", fn="xsq", tau=3.0)),
    )
    for kind in ("equispaced", "halton", "chebyshev")
] + [
    ("saturation_trace",
     dict(algorithm="lgreedy", fn="xsq", nodes="equispaced:300", tau=0.0, max_iter=300)),
    ("comparison_spline_32",
     dict(algorithm="lgreedy", fn="xsq", nodes="equispaced:300", tau=0.0, max_iter=32)),
    ("comparison_kernel_32",
     dict(algorithm="kernel", fn="xsq", nodes="equispaced:300", max_iter=32)),
]


def reproduce_all(out_root: str | None = None) -> dict:
    """Run the full experiment suite into one directory; returns the manifest."""
    if out_root is None:
        out_root = time.strftime("eps-experiments-%Y%m%d-%H%M%S")
    root = Path(out_root)
    _make_dir(root)
    manifest = {}
    for name, settings in REPRODUCE_RUNS:
        summary = run_experiment(ExperimentConfig(out=str(root / name), **settings))
        manifest[name] = {key: summary.get(key) for key in
                          ("n_selected", "final_criterion", "lebesgue_constant", "kappa2")}
    _write_text(root / "manifest.json",
                json.dumps(manifest, indent=2, sort_keys=True, default=float) + "\n")
    return manifest


# ---------------------------------------------------------------------------
# argument parsing

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise InvalidInputError(message)


FLAGS = {
    "nodes": dict(help="node spec kind:count on [-1, 1]"),
    "fn": dict(help=f"target: {' | '.join(TARGETS)} | tab:PATH"),
    "alpha": dict(type=float),
    "tau": dict(type=float, help="stop once the criterion is at most this; 0 runs to "
                "max-iter (the residual greedies stop at an all-zero residual)"),
    "max_iter": dict(type=int, help="cap on the total number of selected nodes"),
    "grid": dict(type=int, help="evaluation grid size"),
    "out": dict(help="output directory"),
}


def build_parser() -> _Parser:
    parser = _Parser(prog="epspline", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)
    for name, subcommand in SUBCOMMANDS.items():
        sub = subs.add_parser(name)
        for setting in subcommand.reads:
            sub.add_argument("--" + setting.replace("_", "-"), default=None, **FLAGS[setting])
    rep = subs.add_parser("reproduce-all")
    rep.add_argument("--out", default=None, help="output root (default: timestamped)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "reproduce-all":
            manifest = reproduce_all(args.out)
            print(json.dumps(manifest, indent=2, sort_keys=True, default=float))
            return 0
        # a flag left out keeps the ExperimentConfig default
        given = {k: v for k, v in vars(args).items() if k != "command" and v is not None}
        summary = run_experiment(ExperimentConfig(algorithm=args.command, **given))
        print(json.dumps(summary, indent=2, sort_keys=True, default=float))
        return 0
    except InvalidInputError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 1
    except SplineError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
