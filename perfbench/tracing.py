"""Spans around the calls into each epspline layer, recorded from outside.

The tracer patches module attributes (and a few class methods) that the
calling module looks up at call time, so ``epspline.greedy.build_basis`` and
``epspline.cli.build_basis`` are two hooks on the same function. Nothing under
``src/`` is changed: every hook is installed by ``Tracer.install`` and removed
again by ``Tracer.uninstall``.

A span is ``[name, parent, start, end, counts]``; ``parent`` is the index of
the enclosing span or -1. Spans stay in memory until the run ends.
"""

import functools
import importlib
import statistics
import time

import numpy as np


def _n_of_result(args, kwargs, out):
    return {"n": int(out.n)}


def _points(arg_index):
    def count(args, kwargs, out):
        return {"points": int(np.size(args[arg_index]))}
    return count


def _segment_points(args, kwargs, out):
    return {"points": int(np.broadcast(np.asarray(args[0]), np.asarray(args[1])).size)}


def _solve_rhs(args, kwargs, out):
    b = np.asarray(args[1])
    return {"rhs": 1 if b.ndim == 1 else int(b.shape[1])}


def _dense_entries(args, kwargs, out):
    return {"entries": int(args[0].n) ** 2}


def _matrix_order(args, kwargs, out):
    return {"order": int(np.shape(args[0])[0])}


def _greedy_counts(args, kwargs, out):
    m = len(args[0])
    trace = out[-1]
    scored = sum(m - s.n_nodes for s in trace.steps if s.criterion is not None)
    return {"inserts": len(trace.selected_indices()), "scored": int(scored)}


def _file_bytes(args, kwargs, out):
    return {"bytes": int(args[0].stat().st_size)}


# (span name, count function, hook sites). A site is "module:attribute" or
# "module:Class.method"; the module is the one whose code makes the call.
HOOKS = [
    ("space.segment_basis_eval", _segment_points, ["epspline.basis:segment_basis_eval"]),
    ("basis.build_basis", _n_of_result,
     ["epspline.basis:build_basis", "epspline.greedy:build_basis",
      "epspline.cli:build_basis"]),
    ("basis.active_values", _points(1), ["epspline.basis:GBSplineBasis.active_values"]),
    ("banded.factorize", _n_of_result,
     ["epspline.interpolate:factorize", "epspline.greedy:factorize",
      "epspline.cli:factorize", "epspline.diagnostics:factorize"]),
    ("banded.solve", _solve_rhs, ["epspline.banded:BandedLU.solve"]),
    ("banded.to_dense", _dense_entries, ["epspline.banded:BandedMatrix.to_dense"]),
    ("interpolate.collocation_matrix", None,
     ["epspline.interpolate:collocation_matrix", "epspline.greedy:collocation_matrix",
      "epspline.cli:collocation_matrix", "epspline.diagnostics:collocation_matrix"]),
    ("interpolate.fit", None,
     ["epspline.interpolate:fit", "epspline.greedy:fit", "epspline.cli:fit"]),
    ("interpolate.lebesgue_function", _points(2),
     ["epspline.interpolate:lebesgue_function", "epspline.greedy:lebesgue_function",
      "epspline.cli:lebesgue_function", "epspline.diagnostics:lebesgue_function"]),
    ("interpolate.Interpolant.__call__", _points(1),
     ["epspline.interpolate:Interpolant.__call__"]),
    ("diagnostics.cond2", _matrix_order,
     ["epspline.greedy:cond2", "epspline.cli:cond2", "epspline.kernel:cond2"]),
    ("diagnostics.sparsity", None,
     ["epspline.greedy:sparsity", "epspline.cli:sparsity", "epspline.kernel:sparsity"]),
    ("greedy.lambda_greedy", _greedy_counts,
     ["epspline.greedy:lambda_greedy", "epspline.cli:lambda_greedy"]),
    ("greedy.f_greedy", _greedy_counts, ["epspline.cli:f_greedy"]),
    ("kernel.tps_fit", None, ["epspline.kernel:tps_fit", "epspline.cli:tps_fit"]),
    ("kernel.kernel_f_greedy", None, ["epspline.cli:kernel_f_greedy"]),
    ("nodes.generate", None, ["epspline.nodes:generate", "epspline.cli:generate"]),
    ("cli.main", None, ["epspline.cli:main"]),
    ("cli.run_experiment", None, ["epspline.cli:run_experiment"]),
    ("cli.write_csv", _file_bytes, ["epspline.cli:write_csv"]),
    ("cli.write_svg_chart", _file_bytes, ["epspline.cli:write_svg_chart"]),
    ("cli.write_trace_csv", None, ["epspline.cli:write_trace_csv"]),
]

GREEDY_SPANS = {"greedy.lambda_greedy", "greedy.f_greedy"}
LOOP_SPANS = GREEDY_SPANS | {"kernel.kernel_f_greedy"}
WRITE_SPANS = {"cli.write_csv", "cli.write_svg_chart", "cli.write_trace_csv"}
# what cli._dispatch redoes after the selection loop has returned
REBUILD_SPANS = {"basis.build_basis", "interpolate.collocation_matrix", "banded.factorize",
                 "interpolate.fit", "interpolate.lebesgue_function", "banded.to_dense",
                 "diagnostics.cond2", "diagnostics.sparsity", "kernel.tps_fit"}


class Tracer:
    """Installs the hooks, records spans, and removes the hooks again."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patched = []
        self.unresolved = []
        # spans whose call signature or result no longer fits their counter
        self.uncounted = set()

    def _wrap(self, name, fn, count):
        spans, stack, uncounted = self.spans, self._stack, self.uncounted
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, clock(), 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if count is not None:
                try:
                    rec[4] = count(args, kwargs, out)
                except (AttributeError, IndexError, TypeError, ValueError):
                    uncounted.add(name)
            return out

        return wrapper

    def install(self):
        self.unresolved = []
        for name, count, sites in HOOKS:
            for site in sites:
                module_name, _, path = site.partition(":")
                try:
                    owner = importlib.import_module(module_name)
                    *parents, attr = path.split(".")
                    for part in parents:
                        owner = getattr(owner, part)
                    original = owner.__dict__[attr] if isinstance(owner, type) \
                        else getattr(owner, attr)
                except (ImportError, AttributeError, KeyError):
                    self.unresolved.append(site)
                    continue
                self._patched.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original, count))

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def take(self):
        """Return the spans recorded so far and empty the list the hooks append to."""
        spans = list(self.spans)
        self.spans.clear()
        return spans


def _children(spans):
    kids = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s[1] >= 0:
            kids[s[1]].append(i)
    return kids


def self_times(spans):
    kids = _children(spans)
    return [s[3] - s[2] - sum(spans[k][3] - spans[k][2] for k in kids[i])
            for i, s in enumerate(spans)]


def _outermost_total(spans, names):
    """Summed duration of spans in ``names`` not nested in another such span."""
    inside = [False] * len(spans)
    total = 0.0
    for i, (name, parent, t0, t1, _) in enumerate(spans):
        covered = parent >= 0 and (inside[parent] or spans[parent][0] in names)
        inside[i] = covered
        if name in names and not covered:
            total += t1 - t0
    return total


def aggregate(spans):
    """Per span name: calls, inclusive seconds, self seconds and summed counts."""
    selfs = self_times(spans)
    out = {}
    for s, self_s in zip(spans, selfs):
        a = out.setdefault(s[0], {"calls": 0, "total_s": 0.0, "self_s": 0.0, "counts": {}})
        a["calls"] += 1
        a["total_s"] += s[3] - s[2]
        a["self_s"] += self_s
        for k, v in (s[4] or {}).items():
            a["counts"][k] = a["counts"].get(k, 0) + v
    return out


def _iteration_ms(spans):
    """Loop-pass durations of every greedy run, split at its basis builds."""
    kids = _children(spans)
    out = []
    for i, s in enumerate(spans):
        if s[0] not in GREEDY_SPANS:
            continue
        starts = [spans[k][2] for k in kids[i] if spans[k][0] == "basis.build_basis"]
        bounds = starts + [s[3]]
        out.extend(1e3 * (b - a) for a, b in zip(bounds, bounds[1:]))
    return out


def _rebuild_s(spans):
    kids = _children(spans)
    total = 0.0
    for i, s in enumerate(spans):
        if s[0] != "cli.run_experiment":
            continue
        loop_end = max((spans[k][3] for k in kids[i] if spans[k][0] in LOOP_SPANS),
                       default=None)
        if loop_end is None:
            continue
        total += sum(spans[k][3] - spans[k][2] for k in kids[i]
                     if spans[k][0] in REBUILD_SPANS and spans[k][2] >= loop_end)
    return total


def layer_metrics(spans):
    """The per-layer metrics of one traced pass, as plain numbers."""
    agg = aggregate(spans)

    def calls(name):
        return agg.get(name, {}).get("calls", 0)

    def secs(name):
        return agg.get(name, {}).get("total_s", 0.0)

    def count(name, key):
        return agg.get(name, {}).get("counts", {}).get(key, 0)

    greedy_count = {k: count("greedy.lambda_greedy", k) + count("greedy.f_greedy", k)
                    for k in ("inserts", "scored")}
    iters = _iteration_ms(spans)
    p50, p90 = (statistics.median(iters), statistics.quantiles(iters, n=10)[8]) \
        if len(iters) >= 2 else (0.0, 0.0)
    local_systems = count("basis.build_basis", "n")
    return {
        "space.segment_eval_s": secs("space.segment_basis_eval"),
        "space.segment_eval_points": count("space.segment_basis_eval", "points"),
        "basis.build_calls": calls("basis.build_basis"),
        "basis.build_s": secs("basis.build_basis"),
        "basis.local_systems": local_systems,
        "basis.local_systems_per_insert":
            local_systems / greedy_count["inserts"] if greedy_count["inserts"] else 0.0,
        "basis.active_values_s": secs("basis.active_values"),
        "basis.active_values_points": count("basis.active_values", "points"),
        "banded.factorize_calls": calls("banded.factorize"),
        "banded.factorize_s": secs("banded.factorize"),
        "banded.solve_calls": calls("banded.solve"),
        "banded.solve_rhs": count("banded.solve", "rhs"),
        "banded.solve_s": secs("banded.solve"),
        "banded.to_dense_calls": calls("banded.to_dense"),
        "banded.dense_entries": count("banded.to_dense", "entries"),
        "interpolate.collocation_s": secs("interpolate.collocation_matrix"),
        "interpolate.fit_s": secs("interpolate.fit"),
        "interpolate.lebesgue_calls": calls("interpolate.lebesgue_function"),
        "interpolate.lebesgue_points": count("interpolate.lebesgue_function", "points"),
        "interpolate.lebesgue_s": secs("interpolate.lebesgue_function"),
        "interpolate.eval_points": count("interpolate.Interpolant.__call__", "points"),
        "interpolate.eval_s": secs("interpolate.Interpolant.__call__"),
        "diagnostics.cond2_calls": calls("diagnostics.cond2"),
        "diagnostics.cond2_s": secs("diagnostics.cond2"),
        "diagnostics.cond2_order_sum": count("diagnostics.cond2", "order"),
        "diagnostics.sparsity_s": secs("diagnostics.sparsity"),
        "greedy.iterations": len(iters),
        "greedy.inserts": greedy_count["inserts"],
        "greedy.candidates_scored": greedy_count["scored"],
        "greedy.self_s": sum(agg.get(n, {}).get("self_s", 0.0) for n in GREEDY_SPANS),
        "greedy.iter_ms_p50": p50,
        "greedy.iter_ms_p90": p90,
        "kernel.tps_fit_calls": calls("kernel.tps_fit"),
        "kernel.tps_fit_s": secs("kernel.tps_fit"),
        "cli.run_s": secs("cli.run_experiment"),
        "cli.write_s": _outermost_total(spans, WRITE_SPANS),
        "cli.bytes_written": count("cli.write_csv", "bytes")
                             + count("cli.write_svg_chart", "bytes"),
        "cli.rebuild_s": _rebuild_s(spans),
        "nodes.generate_s": secs("nodes.generate"),
    }


# Counts that depend only on the inputs; two traced passes must agree on them.
EXACT_COUNTS = ["basis.local_systems", "banded.dense_entries", "greedy.candidates_scored",
                "interpolate.lebesgue_points", "space.segment_eval_points"]
