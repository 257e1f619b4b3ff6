#!/usr/bin/env python3
"""Benchmark of epspline: three workloads, end-to-end metrics or a traced run.

    python3 perfbench/run.py --workload paper_suite --seed 1 --seconds 36 --trace 0

Run from the repository root or anywhere else; the package is imported from
``src/`` next to this directory and nowhere else. The run sets up, repeats
timed passes of the workload until ``--seconds`` would be exceeded, checks
every pass against ``references.json``, and prints report lines starting
with ``#`` followed by one JSON object as the last line:
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` untraced and traced
passes alternate and the metrics are the per-layer ones (see
``tracing.py``). End-to-end times are scaled to a reference host speed
(see ``hostspeed.py``): pass times by a fixed calibration timed between
passes, set-up times by the time a fresh process takes to import numpy and
scipy.linalg. A record of the run, with the environment and, for traced
runs, every span, is written to ``.perfbench_out/``.

Exit codes: 0 with a result (``correct`` may still be false), 2 when set-up
fails (for example when ``src/epspline`` is missing); no result is printed
then.
"""

import ctypes
import os

# Set before numpy loads OpenBLAS: one BLAS thread keeps runs on a small,
# shared machine steady, and every workload is single-threaded Python anyway.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS


def fix_malloc_thresholds() -> bool:
    """Keep freed memory in glibc's heap instead of returning it to the system.

    With glibc's dynamic thresholds a process settles, depending on its
    address-space layout, either in a state that page-faults every large
    numpy temporary in again (fit_eval: 3e5 faults and +1 s per pass) or in
    one that does not, which made run medians bimodal. Fixed thresholds give
    every process the second state. Returns False where ``mallopt`` is missing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    m_trim_threshold, m_mmap_threshold = -1, -3
    return bool(mallopt(m_trim_threshold, 1 << 30)) and bool(mallopt(m_mmap_threshold, 32 << 20))


MALLOC_FIXED = fix_malloc_thresholds()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOADS = ("paper_suite", "lgreedy_wide", "fit_eval")
DEFAULT_SEED = 1
# A second seed, for confirming a claimed gain on inputs not used while the
# change was written.
CHECK_SEED = 2
# Set-up is timed in this process and in this many fresh child processes,
# each paired with a fresh process that times the baseline imports; the
# median is reported.
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60
# A traced run alternates untraced and traced passes, at least two of each,
# so that exact counts can be compared and overhead measured.
MIN_TRACED_RUN_PASSES = 4

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
                    "success_frac": "ratio", "eval_points_per_s": "1/s"}


def layer_unit(name: str) -> str:
    if name.endswith("_ms_p50") or name.endswith("_ms_p90"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name == "cli.bytes_written":
        return "B"
    if name.endswith("_per_insert"):
        return "ratio"
    return "count"


class Section:
    """Sums the time spent inside its ``with`` blocks.

    With a tracer, the hooks are installed for exactly those blocks, so the
    benchmark's own checks are neither timed nor traced.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.seconds = 0.0

    def __enter__(self):
        if self.tracer is not None:
            self.tracer.install()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.seconds += time.perf_counter() - self._t0
        if self.tracer is not None:
            self.tracer.uninstall()
        return False


def set_up(workload: str, seed: int):
    """Import the program and make the workload's inputs; returns the time taken."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    inputs = workloads.WORKLOADS[workload].setup(seed)
    return time.perf_counter() - t0, workloads, inputs


def probe(workload: str, seed: int, what: str) -> float:
    """Time ``set_up`` or ``import_baseline`` (``what``) in a fresh process."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--probe", what]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S, check=True)
    return float(proc.stdout.split()[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def import_baseline() -> float:
    """Time to import what epspline imports; set-up times are scaled by it."""
    t0 = time.perf_counter()
    import numpy  # noqa: F401
    import scipy.linalg  # noqa: F401
    return time.perf_counter() - t0


def probe_set_ups(workload: str, seed: int):
    """Set-up and baseline-import times of fresh processes, taken in turn."""
    samples, baselines = [], []
    for _ in range(SETUP_PROBES):
        baselines.append(probe(workload, seed, "baseline"))
        samples.append(probe(workload, seed, "setup"))
    return samples, baselines


def run_passes(workload, inputs, seconds, tracer, wl, calibration):
    """Timed passes, each followed by a calibration, until the next one would
    overrun ``seconds``. Returns the passes and every calibration time."""
    scratch = Path(tempfile.mkdtemp(prefix="passes-", dir=OUT_DIR))
    passes = []
    calibrations = [calibration.seconds()]
    start = time.perf_counter()
    try:
        while True:
            traced = tracer is not None and len(passes) % 2 == 1
            section = Section(tracer if traced else None)
            t0 = time.perf_counter()
            try:
                result = workload.run(inputs, section, scratch)
            except Exception:  # a failing pass is counted and the run goes on
                traceback.print_exc()
                attempted = workload.attempts(inputs)
                result = wl.PassResult(attempted=attempted, failed=attempted,
                                       problems=["pass raised an exception"])
            spans = tracer.take() if traced else None
            calibrations.append(calibration.seconds())
            passes.append({"traced": traced, "seconds": section.seconds, "result": result,
                           "cycle_s": time.perf_counter() - t0, "spans": spans})
            elapsed = time.perf_counter() - start
            typical = statistics.median(p["cycle_s"] for p in passes)
            enough = tracer is None or len(passes) >= MIN_TRACED_RUN_PASSES
            if enough and elapsed + typical > seconds:
                return passes, calibrations
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def end_to_end(passes, pass_scale, setup_samples, setup_scale, attempted, failed):
    """End-to-end metrics, with times multiplied by the host-speed scales."""
    # The host's speed drifts within a run too, so a pass time is averaged over
    # the whole run, like the calibrations its scale comes from.
    seconds = sum(p["seconds"] for p in passes) * pass_scale
    return {
        "wall_s": seconds / len(passes),
        "setup_s": statistics.median(setup_samples) * setup_scale,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "success_frac": (attempted - failed) / attempted,
        "eval_points_per_s": sum(p["result"].points for p in passes) / seconds,
    }


def per_layer(passes, setup_spans, tracing):
    """Per-layer metrics (median over traced passes) and self-check problems."""
    traced = [tracing.layer_metrics(p["spans"]) for p in passes if p["traced"]]
    metrics = {}
    for name in traced[0]:
        values = [m[name] for m in traced]
        metrics[name] = values[0] if len(set(values)) == 1 else statistics.median(values)
    metrics["nodes.generate_s"] += tracing.layer_metrics(setup_spans)["nodes.generate_s"]
    metrics["trace.overhead_s"] = (
        statistics.median(p["seconds"] for p in passes if p["traced"])
        - statistics.median(p["seconds"] for p in passes if not p["traced"]))
    problems = [f"exact count {name} differs between traced passes: "
                f"{[m[name] for m in traced]}"
                for name in tracing.EXACT_COUNTS if len({m[name] for m in traced}) != 1]
    return metrics, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", choices=("setup", "baseline"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.probe == "baseline":
        print(repr(import_baseline()))
        return 0
    try:
        setup_s, wl, inputs = set_up(args.workload, args.seed)
    except (ImportError, OSError, KeyError, ValueError) as exc:
        print(f"perfbench: set-up failed: {exc!r}", file=sys.stderr)
        return 2
    if args.probe == "setup":
        print(repr(setup_s))
        return 0

    import envinfo
    import hostspeed
    import tracing

    try:
        probes, baselines = probe_set_ups(args.workload, args.seed)
    except (subprocess.SubprocessError, ValueError, IndexError) as exc:
        print(f"perfbench: set-up probe failed: {exc!r}", file=sys.stderr)
        return 2
    setup_samples = [setup_s] + probes
    setup_scale = hostspeed.REFERENCE_IMPORT_S / statistics.median(baselines)
    calibration = hostspeed.Calibration()

    OUT_DIR.mkdir(exist_ok=True)
    workload = wl.WORKLOADS[args.workload]
    tracer = setup_spans = None
    if args.trace:
        tracer = tracing.Tracer()
        with Section(tracer):
            workload.setup(args.seed)
        setup_spans = tracer.take()

    passes, calibrations = run_passes(workload, inputs, args.seconds, tracer, wl, calibration)

    attempted = sum(p["result"].attempted for p in passes)
    failed = sum(p["result"].failed for p in passes)
    problems = [q for p in passes for q in p["result"].problems]
    if args.trace:
        values, count_problems = per_layer(passes, setup_spans, tracing)
        problems += count_problems
        units = {name: layer_unit(name) for name in values}
    else:
        values = end_to_end(passes, hostspeed.scale(calibrations), setup_samples,
                            setup_scale, attempted, failed)
        units = END_TO_END_UNITS
    correct = failed == 0 and not problems
    env = envinfo.environment()
    env["malloc_thresholds_fixed"] = MALLOC_FIXED

    timed = [p["seconds"] for p in passes if not p["traced"]]
    q1, q3 = quartiles(timed)
    inserts = sum(p["result"].inserts for p in passes if not p["traced"])
    print(f"# perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(passes)} passes, {attempted} operations, {failed} failed "
          f"(fail_frac {failed / attempted:.6g})")
    print(f"# untraced pass time on this host: median {statistics.median(timed):.6g} s, "
          f"q1 {q1:.6g} s, q3 {q3:.6g} s, n={len(timed)}")
    print(f"# host scale over the passes: {hostspeed.scale(calibrations):.4g} "
          f"(calibration median {statistics.median(calibrations):.4g} s, "
          f"reference {hostspeed.REFERENCE_S:g} s)")
    print(f"# host scale over set-up: {setup_scale:.4g} (baseline import median "
          f"{statistics.median(baselines):.4g} s, reference {hostspeed.REFERENCE_IMPORT_S:g} s)")
    if inserts:
        print(f"# inserts_per_s {inserts / sum(timed):.6g} 1/s "
              f"({inserts} greedy insertions)")
    print(f"# setup samples on this host (s): {', '.join(f'{s:.4g}' for s in setup_samples)}")
    for name, value in values.items():
        print(f"# {name} = {value:.6g} {units[name]}")
    if tracer is not None and tracer.unresolved:
        print(f"# unresolved hooks: {', '.join(tracer.unresolved)}")
    if tracer is not None and tracer.uncounted:
        print(f"# spans without counts: {', '.join(sorted(tracer.uncounted))}")
    for problem in problems[:20]:
        print(f"# problem: {problem}")
    print(f"# env {json.dumps(env, sort_keys=True)}")

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env, "setup_samples": setup_samples,
        "baseline_imports": baselines, "calibrations": calibrations,
        "reference_s": hostspeed.REFERENCE_S,
        "reference_import_s": hostspeed.REFERENCE_IMPORT_S,
        "correct": correct, "attempted": attempted, "failed": failed,
        "problems": problems, "metrics": values,
        "passes": [{"traced": p["traced"], "seconds": p["seconds"],
                    "attempted": p["result"].attempted, "failed": p["result"].failed,
                    "points": p["result"].points, "inserts": p["result"].inserts}
                   for p in passes],
    }
    if tracer is not None:
        traced_spans = [p["spans"] for p in passes if p["traced"]]
        record["unresolved_hooks"] = tracer.unresolved
        record["uncounted_spans"] = sorted(tracer.uncounted)
        record["span_summary"] = [tracing.aggregate(s) for s in traced_spans]
        record["span_fields"] = ["name", "parent", "start", "end", "counts"]
        record["spans"] = {"setup": setup_spans, "passes": traced_spans}
    out_file = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record) + "\n")

    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
