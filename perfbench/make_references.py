#!/usr/bin/env python3
"""Write ``references.json``: the outputs every benchmark pass is checked against.

    python3 perfbench/make_references.py

It records the program's outputs as they are at the current commit, with the
benchmark's inputs and BLAS thread count. Regenerate only in a change whose
purpose is to alter those outputs, and say so in that change; a change that
claims a speed-up keeps the references it was measured against.
"""

import contextlib
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

import run  # sets the BLAS thread count before numpy is loaded

sys.path.insert(0, str(run.ROOT / "src"))
import workloads as wl  # noqa: E402

SUITE_KEYS = ("status", "n_selected", "stop_reason", "selected_x", "lebesgue_constant",
              "kappa2", "final_criterion", "criteria", "trace_kappa2", "max_error")


def paper_suite() -> dict:
    run.OUT_DIR.mkdir(exist_ok=True)
    out = Path(tempfile.mkdtemp(prefix="references-", dir=run.OUT_DIR))
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = wl.cli.main(["reproduce-all", "--out", str(out)])
        if code != 0:
            raise SystemExit(f"reproduce-all exited with {code}")
        refs = {}
        for run_dir in sorted(p for p in out.iterdir() if p.is_dir()):
            got = wl.suite_outputs(run_dir)
            refs[run_dir.name] = {k: got[k] for k in SUITE_KEYS if k in got}
        return refs
    finally:
        shutil.rmtree(out, ignore_errors=True)


def lgreedy_wide() -> list:
    refs = []
    for variant in range(wl.WIDE_VARIANTS):
        selected, trace = wl.greedy.lambda_greedy(wl.wide_candidates(variant),
                                                  wl.wide_config())
        refs.append(wl.wide_outputs(selected, trace))
    return refs


def fit_eval() -> dict:
    x = wl.nodes.chebyshev_lobatto(wl.FIT_NODES)
    basis = wl.basis_mod.build_basis(x, wl.epspline.ExpSpace(wl.ALPHA))
    lu = wl.interpolate.factorize(wl.interpolate.collocation_matrix(basis))
    grid = wl.fit_grid()
    errors = []
    for k in wl.FIT_K_TABLE:
        y = wl.fit_target(k)(x)
        interp = wl.interpolate.fit(basis, y, lu=lu)
        if not wl.reproduces_data(interp, x, y):
            raise SystemExit(f"k={k}: interpolant does not reproduce its data")
        errors.append(wl.fit_max_error(grid, interp(grid), k))
    return {"max_error": errors}


def main():
    refs = {"paper_suite": paper_suite(), "lgreedy_wide": lgreedy_wide(),
            "fit_eval": fit_eval()}
    wl.REFERENCES.write_text(json.dumps(refs, indent=1) + "\n")


if __name__ == "__main__":
    main()
