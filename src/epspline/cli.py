"""Experiment runner: greedy selections, Lebesgue scans, node generation.

Every run writes CSV traces (the contract: deterministic, floats at 17
significant digits), simple SVG polyline charts (best-effort presentation),
and a summary.json. Exit codes: 0 success, 1 invalid input, 2 numerical
failure.
"""

import argparse
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .basis import build_basis
from .diagnostics import cond2, sparsity
from .errors import InvalidInputError, SplineError, check_integer
from .greedy import (
    GreedyConfig,
    GreedyError,
    GreedyTrace,
    check_stop_rule,
    f_greedy,
    lambda_greedy,
)
from .interpolate import (
    Interpolant,
    collocation_matrix,
    factorize,
    fit,
    lebesgue_function,
)
from .kernel import kernel_f_greedy
from .nodes import NodeSpec, generate
from .space import ExpSpace

ALGORITHMS = ("fgreedy", "lgreedy", "kernel", "lebesgue", "nodes")
DEFAULT_TAU = {"fgreedy": 1e-3, "lgreedy": 3.0, "kernel": None}


# ---------------------------------------------------------------------------
# configuration

@dataclass
class ExperimentConfig:
    algorithm: str
    nodes: str = "equispaced:300"
    fn: str | None = None
    alpha: float = 2.0
    tau: float | None = None
    no_stop: bool = False
    max_iter: int | None = None
    grid: int = 400
    out: str = "out"
    seed: int = 0

    def validate(self):
        if self.algorithm not in ALGORITHMS:
            raise InvalidInputError(f"algorithm must be one of {ALGORITHMS}")
        parse_node_spec(self.nodes)
        known_fn = ("atan55", "xsq", "inspace")
        if self.fn is not None and self.fn not in known_fn \
                and not self.fn.startswith("tab:"):
            raise InvalidInputError(
                f"fn must be one of {known_fn} or tab:PATH, got {self.fn!r}"
            )
        if not (np.isfinite(self.alpha) and self.alpha > 0.0):
            raise InvalidInputError(f"alpha must be finite and positive, got {self.alpha}")
        check_integer("grid", self.grid)
        check_integer("seed", self.seed)
        if self.grid < 2:
            raise InvalidInputError(f"grid must have at least 2 points, got {self.grid}")
        if self.seed < 0:
            raise InvalidInputError(f"seed must be nonnegative, got {self.seed}")
        check_stop_rule(self.tau, self.max_iter)


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


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidInputError(f"cannot read {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# deterministic writers

def fmt(value) -> str:
    if value is None or (isinstance(value, float) and not np.isfinite(value) and np.isnan(value)):
        return ""
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def write_csv(path: Path, header: list[str], rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


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
    path.write_text("\n".join(parts) + "\n")


def write_trace_csv(path: Path, trace: GreedyTrace):
    rows = [
        (s.iteration, None if s.selected_x is None else float(s.selected_x),
         s.criterion, s.kappa2, s.sparsity)
        for s in trace.steps
    ]
    write_csv(path, ["iter", "selected_x", "criterion", "kappa2", "sparsity"], rows)


# ---------------------------------------------------------------------------
# target functions

def resolve_function(cfg: ExperimentConfig, candidates: np.ndarray):
    """Return (callable, values at candidates) for the configured target."""
    name = cfg.fn
    if name is None:
        name = "atan55" if cfg.algorithm == "fgreedy" else "xsq"
    if name == "atan55":
        f = lambda x: np.arctan(55.0 * np.asarray(x, dtype=float))  # noqa: E731
    elif name == "xsq":
        f = lambda x: np.asarray(x, dtype=float) ** 2  # noqa: E731
    elif name == "inspace":
        basis = build_basis(candidates, ExpSpace(cfg.alpha))
        rng = np.random.default_rng(cfg.seed)
        coef = rng.standard_normal(basis.n)
        f = Interpolant(basis=basis, coefficients=coef)
    elif name.startswith("tab:"):
        return _load_tabulated(name[4:], candidates)
    else:
        raise InvalidInputError(f"unknown function id {name!r}")
    return f, np.asarray(f(candidates), dtype=float)


def _load_tabulated(path: str, candidates: np.ndarray):
    rows = []
    for lineno, raw in enumerate(_read_text(path).splitlines(), start=1):
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
    if len(rows) != len(candidates):
        raise InvalidInputError(
            f"tabulated function has {len(rows)} rows but there are "
            f"{len(candidates)} candidates; supply matching data"
        )
    xs = np.array([r[0] for r in rows])
    ys = np.array([r[1] for r in rows])
    order = np.argsort(xs)
    xs, ys = xs[order], ys[order]
    if not np.allclose(xs, candidates, rtol=0.0, atol=1e-12):
        raise InvalidInputError("tabulated abscissas do not match the candidate set")
    # keyed by the candidates: the file's abscissas may differ in the last digits
    lookup = dict(zip(candidates.tolist(), ys.tolist()))

    def f(x):
        xa = np.atleast_1d(np.asarray(x, dtype=float))
        try:
            return np.array([lookup[float(v)] for v in xa])
        except KeyError as exc:
            raise InvalidInputError("tabulated target sampled off its grid") from exc

    return f, ys


# ---------------------------------------------------------------------------
# experiment driver

def run_experiment(cfg: ExperimentConfig) -> dict:
    """Run one experiment, write its artifact files, return the summary dict."""
    cfg.validate()
    t0 = time.perf_counter()
    out = Path(cfg.out)
    _make_dir(out)
    summary = {"status": "FAILED", "algorithm": cfg.algorithm, "config": _config_dict(cfg)}
    try:
        result = _dispatch(cfg, out)
        summary.update(result)
        summary["status"] = "ok"
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


def _config_dict(cfg: ExperimentConfig) -> dict:
    return {k: getattr(cfg, k) for k in ExperimentConfig.__dataclass_fields__}


def _write_summary(out: Path, summary: dict):
    out.joinpath("summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True, default=float) + "\n"
    )


def _sized(make, *args):
    """``make(*args)``, sized by the user: a size numpy or the host can't hold is invalid input."""
    try:
        return make(*args)
    except SplineError:
        raise
    except (ValueError, MemoryError) as exc:
        raise InvalidInputError(f"size too large: {exc}") from exc


def _dispatch(cfg: ExperimentConfig, out: Path) -> dict:
    candidates = _sized(generate, parse_node_spec(cfg.nodes))
    if cfg.algorithm == "nodes":
        write_csv(out / "selected.csv", ["x"], [(float(x),) for x in candidates])
        write_svg_chart(out / "plot_selected.svg", candidates,
                        np.zeros_like(candidates), "generated nodes", scatter=True)
        return {"n_selected": len(candidates)}

    # selection: a scan keeps every candidate and has no trace or predictor
    selected, trace, predict = candidates, None, None
    if cfg.algorithm != "lebesgue":
        f, values = resolve_function(cfg, candidates)
        tau = None if cfg.no_stop else (cfg.tau if cfg.tau is not None
                                        else DEFAULT_TAU[cfg.algorithm])
        if cfg.algorithm == "kernel":
            selected, predict, trace = kernel_f_greedy(candidates, values, tau=tau,
                                                       max_iter=cfg.max_iter)
        else:
            greedy_cfg = GreedyConfig(alpha=cfg.alpha, tau=tau, max_iter=cfg.max_iter)
            if cfg.algorithm == "fgreedy":
                selected, predict, trace = f_greedy(candidates, values, greedy_cfg)
            else:
                selected, trace = lambda_greedy(candidates, greedy_cfg)

    # the spline on the selected nodes, for every algorithm (the kernel's too)
    basis = build_basis(selected, ExpSpace(cfg.alpha))
    phi = collocation_matrix(basis)
    lu = factorize(phi)
    eval_grid = _sized(np.linspace, candidates[0], candidates[-1], cfg.grid)
    lam = lebesgue_function(basis, lu, eval_grid)
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
    # tabulated targets are only known at the candidate abscissas
    err_grid = candidates if (cfg.fn or "").startswith("tab:") else eval_grid
    abs_err = np.abs(np.asarray(f(err_grid), dtype=float) - predict(err_grid))
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

REPRODUCE_RUNS = [
    ("lebesgue_scan_equispaced", dict(algorithm="lebesgue", nodes="equispaced:8")),
    ("lebesgue_scan_halton", dict(algorithm="lebesgue", nodes="halton:8")),
    ("lebesgue_scan_chebyshev", dict(algorithm="lebesgue", nodes="chebyshev:8")),
    ("fgreedy_atan_equispaced",
     dict(algorithm="fgreedy", fn="atan55", nodes="equispaced:300", tau=1e-3)),
    ("fgreedy_atan_halton",
     dict(algorithm="fgreedy", fn="atan55", nodes="halton:300", tau=1e-3)),
    ("fgreedy_atan_chebyshev",
     dict(algorithm="fgreedy", fn="atan55", nodes="chebyshev:300", tau=1e-3)),
    ("lgreedy_equispaced",
     dict(algorithm="lgreedy", fn="xsq", nodes="equispaced:300", tau=3.0)),
    ("lgreedy_halton",
     dict(algorithm="lgreedy", fn="xsq", nodes="halton:300", tau=3.0)),
    ("lgreedy_chebyshev",
     dict(algorithm="lgreedy", fn="xsq", nodes="chebyshev:300", tau=3.0)),
    ("saturation_trace",
     dict(algorithm="lgreedy", fn="xsq", nodes="equispaced:300", no_stop=True,
          max_iter=300)),
    ("comparison_spline_32",
     dict(algorithm="lgreedy", fn="xsq", nodes="equispaced:300", no_stop=True,
          max_iter=32)),
    ("comparison_kernel_32",
     dict(algorithm="kernel", fn="xsq", nodes="equispaced:300", no_stop=True,
          max_iter=32)),
]


def reproduce_all(out_root: str | None = None) -> dict:
    """Run the full experiment suite into one directory; returns the manifest."""
    if out_root is None:
        out_root = time.strftime("eps-experiments-%Y%m%d-%H%M%S")
    root = Path(out_root)
    _make_dir(root)
    manifest = {}
    for name, overrides in REPRODUCE_RUNS:
        overrides = dict(overrides)
        cfg = ExperimentConfig(algorithm=overrides.pop("algorithm"),
                               out=str(root / name), **overrides)
        summary = run_experiment(cfg)
        manifest[name] = {
            "n_selected": summary.get("n_selected"),
            "final_criterion": summary.get("final_criterion"),
            "lebesgue_constant": summary.get("lebesgue_constant"),
            "kappa2": summary.get("kappa2"),
        }
    root.joinpath("manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True, default=float) + "\n"
    )
    return manifest


# ---------------------------------------------------------------------------
# argument parsing

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise InvalidInputError(message)


def _add_common(sub: argparse.ArgumentParser, with_fn: bool = True):
    sub.add_argument("--nodes", default=None, help="node spec kind:count on [-1, 1]")
    sub.add_argument("--alpha", type=float, default=None)
    sub.add_argument("--tau", type=float, default=None)
    sub.add_argument("--no-stop", action="store_true", default=None,
                     help="ignore tau; run until max-iter or exhaustion")
    sub.add_argument("--max-iter", type=int, default=None,
                     help="cap on the total number of selected nodes")
    sub.add_argument("--grid", type=int, default=None, help="evaluation grid size")
    sub.add_argument("--out", default=None, help="output directory")
    sub.add_argument("--seed", type=int, default=None,
                     help="seed for the random in-space target")
    if with_fn:
        sub.add_argument("--fn", default=None,
                         help="target: atan55 | xsq | inspace | tab:PATH")


def build_parser() -> _Parser:
    parser = _Parser(prog="epspline", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)
    for name in ("fgreedy", "lgreedy", "kernel", "lebesgue", "nodes"):
        sub = subs.add_parser(name)
        _add_common(sub, with_fn=name in ("fgreedy", "lgreedy", "kernel"))
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
