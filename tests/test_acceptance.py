"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line. All
tolerances are fixed here; nothing is calibrated at run time.
"""

import filecmp
import time

import numpy as np
import pytest

from epspline import (
    ExpSpace,
    GreedyConfig,
    build_basis,
    cardinal_values,
    check_error_bound,
    collocation_matrix,
    cond2,
    f_greedy,
    factorize,
    fit,
    kernel_f_greedy,
    lambda_greedy,
    lebesgue_constant,
    skeel_condition,
    sparsity,
)
from epspline.cli import reproduce_all
from epspline.interpolate import Interpolant
from epspline.nodes import chebyshev_lobatto, equispaced, halton

ALPHA = 2.0
NODE_FAMILIES = {"equispaced": equispaced, "halton": halton, "chebyshev": chebyshev_lobatto}


def report(criterion: int, ok: bool, detail: str):
    print(f"\n[criterion {criterion:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def atan55(x):
    return np.arctan(55.0 * np.asarray(x, dtype=float))


def xsq(x):
    return np.asarray(x, dtype=float) ** 2


def test_criterion_01_cardinal_conditions():
    t0 = time.perf_counter()
    worst = 0.0
    for maker in NODE_FAMILIES.values():
        for n in (8, 50, 300):
            basis = build_basis(maker(n), ExpSpace(ALPHA))
            lu = factorize(collocation_matrix(basis))
            psi = cardinal_values(basis, lu, basis.knots.interior)
            worst = max(worst, float(np.abs(psi - np.eye(n)).max()))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 10.0
    report(1, ok, f"max |cardinal - kronecker| = {worst:.3e} (tol 1e-8), "
                  f"runtime {elapsed:.2f}s (< 10s)")


def test_criterion_02_in_space_reproduction():
    rng = np.random.default_rng(123)
    basis = build_basis(equispaced(20), ExpSpace(ALPHA))
    xs = np.linspace(-1.0, 1.0, 1000)
    worst = 0.0
    for _ in range(20):
        coef = rng.normal(size=basis.n)
        target = Interpolant(basis=basis, coefficients=coef)
        interp = fit(basis, target(basis.knots.interior))
        scale = max(1.0, float(np.abs(target(xs)).max()))
        worst = max(worst, float(np.abs(interp(xs) - target(xs)).max()) / scale)
    ok = worst <= 1e-7
    report(2, ok, f"worst relative sup error over 20 draws = {worst:.3e} (tol 1e-7)")


def test_criterion_03_oracle_equivalence():
    rng = np.random.default_rng(7)
    worst_fit = 0.0
    for n in (5, 12, 30, 50):
        basis = build_basis(equispaced(n), ExpSpace(ALPHA))
        y = rng.normal(size=n)
        banded = fit(basis, y).coefficients
        dense = np.linalg.solve(collocation_matrix(basis).to_dense(), y)
        worst_fit = max(worst_fit, float(np.abs(banded - dense).max()))
    basis = build_basis(equispaced(12), ExpSpace(ALPHA))
    y = rng.normal(size=12)
    interp = fit(basis, y)
    grid = np.linspace(-1.0, 1.0, 400)
    direct = sum(interp.coefficients[j] * basis.evaluate(j, grid)
                 for j in range(basis.n))
    worst_eval = float(np.abs(interp(grid) - direct).max())
    ok = worst_fit <= 1e-10 and worst_eval <= 1e-12
    report(3, ok, f"banded-vs-dense fit {worst_fit:.3e} (tol 1e-10), "
                  f"local-vs-dense eval {worst_eval:.3e} (tol 1e-12)")


def test_criterion_04_c2_smoothness():
    worst = 0.0
    for n in (10, 40, 100):
        basis = build_basis(equispaced(n), ExpSpace(ALPHA))
        for j in range(basis.n):
            sup_grid = np.linspace(*basis.support(j), 60)
            for d in range(3):
                scale = max(1.0, float(np.abs(basis.evaluate(j, sup_grid, d)).max()))
                for m in range(1, 4):
                    left = basis.segment_value(j, m - 1, 1.0, d)
                    right = basis.segment_value(j, m, 0.0, d)
                    worst = max(worst, abs(left - right) / scale)
    ok = worst <= 1e-8
    report(4, ok, f"max scaled derivative jump (orders 0-2, n<=100) = {worst:.3e} "
                  "(tol 1e-8)")


def test_criterion_05_f_greedy_steep_target():
    t0 = time.perf_counter()
    cand = equispaced(300)
    selected, interp, trace = f_greedy(cand, atan55(cand),
                                       GreedyConfig(alpha=ALPHA, tau=1e-3))
    elapsed = time.perf_counter() - t0
    remaining = np.setdiff1d(cand, selected)
    max_resid = float(np.abs(atan55(remaining) - interp(remaining)).max())
    n_sel = len(selected)
    interior = selected[1:-1]
    central = float(np.mean(np.abs(interior) <= 0.2))
    ok = (max_resid <= 1e-3 and 25 <= n_sel <= 50 and central >= 0.40
          and elapsed < 60.0)
    report(5, ok, f"residual {max_resid:.3e} (<= 1e-3), n={n_sel} (in [25,50], "
                  f"target 36), central fraction {central:.2f} (>= 0.40), "
                  f"runtime {elapsed:.2f}s (< 60s)")


def test_criterion_06_lambda_greedy_counts_and_boundary():
    bands = {"equispaced": (12, 28), "halton": (12, 28), "chebyshev": (24, 48)}
    targets = {"equispaced": 18, "halton": 19, "chebyshev": 36}
    details = []
    ok = True
    for name, maker in NODE_FAMILIES.items():
        selected, trace = lambda_greedy(maker(300), GreedyConfig(alpha=ALPHA, tau=3.0))
        final = trace.steps[-1].criterion
        n_sel = len(selected)
        lo, hi = bands[name]
        boundary = float(np.mean(np.abs(selected) >= 0.9))
        ok &= final <= 3.0 and lo <= n_sel <= hi and boundary >= 0.40
        details.append(f"{name}: n={n_sel} (in [{lo},{hi}], target {targets[name]}), "
                       f"final max lebesgue {final:.3f} (<= 3), "
                       f"boundary {boundary:.2f} (>= 0.40)")
    report(6, ok, "; ".join(details))


def test_criterion_07_lambda_greedy_data_independence():
    cand = equispaced(300)
    sequences = []
    for seed in (1, 2):
        # different data attached to the same candidates; selection ignores it
        _values = np.random.default_rng(seed).normal(size=300)
        selected, trace = lambda_greedy(cand, GreedyConfig(alpha=ALPHA, tau=3.0))
        sequences.append([s.selected_index for s in trace.steps])
    ok = sequences[0] == sequences[1]
    report(7, ok, f"selection sequences identical across attached data sets "
                  f"({len(sequences[0])} steps)")


def level_change(values, q):
    """Relative change of the median level from the third to the last quartile.

    Late greedy picks fill isolated holes, so a single step's value depends on
    which holes are still open; the median of a quartile is its level.
    """
    before, last = np.median(values[-2 * q:-q]), np.median(values[-q:])
    return before, last, abs(last - before) / before


def test_criterion_08_saturation_trends():
    cand = equispaced(300)
    selected, trace = lambda_greedy(cand, GreedyConfig(alpha=ALPHA, max_iter=300))
    lam = np.array([s.criterion for s in trace.steps if s.criterion is not None])
    kap = np.array([s.kappa2 for s in trace.steps if s.criterion is not None])
    spar = trace.sparsity_values()
    q = len(lam) // 4
    first_window = lam[:q]
    decrease_ok = first_window[-1] < first_window[0]
    lam_before, lam_last, lam_change = level_change(lam, q)
    kap_before, kap_last, kap_change = level_change(kap, q)
    spar_ok = bool(np.all(np.diff(spar) >= -1e-12))
    # negative control: the kernel model's kappa2 keeps growing, and the same
    # statistic must see it
    _, ker_trace = kernel_f_greedy(cand, xsq(cand), max_iter=120)
    ker_kap = np.array([s.kappa2 for s in ker_trace.steps if s.criterion is not None])
    ker_change = level_change(ker_kap, len(ker_kap) // 4)[2]
    ok = (decrease_ok and lam_change < 0.05 and kap_change < 0.05 and spar_ok
          and ker_change > 0.05)
    report(8, ok, f"first-quartile decrease {first_window[0]:.2f} -> "
                  f"{first_window[-1]:.2f} ({decrease_ok}), last-two-quartile "
                  f"median level change: lebesgue {lam_before:.3f} -> {lam_last:.3f} "
                  f"= {lam_change:.3f} (< 0.05), kappa2 {kap_before:.3f} -> "
                  f"{kap_last:.3f} = {kap_change:.3f} (< 0.05; single steps "
                  f"{kap[-q]:.2f} -> {kap[-1]:.2f}, complete set "
                  f"{trace.steps[-1].kappa2:.2f}), kernel kappa2 {ker_change:.3f} "
                  f"(> 0.05), sparsity non-decreasing {spar_ok}")


def test_criterion_09_chebyshev_not_smallest():
    grid = np.linspace(-1.0, 1.0, 400)
    lams = {}
    for name, maker in NODE_FAMILIES.items():
        basis = build_basis(maker(8), ExpSpace(ALPHA))
        lu = factorize(collocation_matrix(basis))
        lams[name] = lebesgue_constant(basis, lu, grid)
    ok = lams["chebyshev"] >= min(lams["equispaced"], lams["halton"])
    report(9, ok, "lebesgue constants n=8: " +
           ", ".join(f"{k}={v:.3f}" for k, v in lams.items()) +
           " (chebyshev not the minimum)")


def test_criterion_10_error_bound():
    grid = np.linspace(-1.0, 1.0, 400)
    details = []
    ok = True

    basis = build_basis(equispaced(20), ExpSpace(ALPHA))
    rng = np.random.default_rng(42)
    coef = rng.normal(size=20)
    target = Interpolant(basis=basis, coefficients=coef)
    interp = fit(basis, target(basis.knots.interior))
    rep = check_error_bound(target, interp, grid)
    ok &= rep.holds
    details.append(f"in-space: holds={rep.holds} (proxy {rep.proxy:.1e})")

    cand = equispaced(300)
    sel_f, interp_f, _ = f_greedy(cand, atan55(cand), GreedyConfig(alpha=ALPHA, tau=1e-3))
    rep = check_error_bound(atan55, interp_f, grid)
    ok &= rep.holds and rep.status == "ok"
    details.append(f"steep target on {len(sel_f)} residual-greedy nodes: "
                   f"holds={rep.holds}, worst ratio {rep.worst_ratio:.2f}")

    sel_l, _ = lambda_greedy(cand, GreedyConfig(alpha=ALPHA, tau=3.0))
    basis_l = build_basis(sel_l, ExpSpace(ALPHA))
    interp_l = fit(basis_l, xsq(sel_l))
    rep = check_error_bound(xsq, interp_l, grid)
    ok &= rep.holds and rep.status == "ok"
    details.append(f"parabola on {len(sel_l)} lebesgue-greedy nodes: "
                   f"holds={rep.holds}, worst ratio {rep.worst_ratio:.2f}")
    report(10, ok, "; ".join(details) + " (5% slack)")


def test_criterion_11_kernel_contrast():
    cand = equispaced(300)
    eps_sel, _ = lambda_greedy(cand, GreedyConfig(alpha=ALPHA, max_iter=32))
    ker_sel, _ = kernel_f_greedy(cand, xsq(cand), max_iter=32)
    eps_boundary = float(np.mean(np.abs(eps_sel) >= 0.9))
    ker_boundary = float(np.mean(np.abs(ker_sel) >= 0.9))
    inner = ker_sel[np.abs(ker_sel) <= 0.8]
    gap_ratio = float(np.diff(ker_sel).max() / np.diff(inner).min())
    ok = (len(eps_sel) == len(ker_sel) == 32
          and eps_boundary > ker_boundary
          and gap_ratio <= 3.0)
    report(11, ok, f"boundary density: spline {eps_boundary:.3f} > kernel "
                   f"{ker_boundary:.3f}; kernel max/min interior gap "
                   f"{gap_ratio:.2f} (<= 3)")


def test_criterion_12_diagnostic_units():
    c = cond2(np.eye(5))
    s = skeel_condition(np.diag([2.0, -3.0, 0.5]))
    z = sparsity(np.eye(3))
    ok = abs(c - 1.0) <= 1e-12 and abs(s - 1.0) <= 1e-12 and abs(z - 2 / 3) <= 1e-12
    report(12, ok, f"cond2(I5)={c}, skeel(diag)={s}, sparsity(I3)={z:.15f}")


def test_criterion_13_reproduce_all(tmp_path):
    t0 = time.perf_counter()
    first = reproduce_all(str(tmp_path / "run1"))
    elapsed = time.perf_counter() - t0
    reproduce_all(str(tmp_path / "run2"))
    mismatches = []
    for sub in sorted((tmp_path / "run1").iterdir()):
        if not sub.is_dir():
            continue
        for f in sorted(sub.iterdir()):
            if f.suffix not in (".csv", ".svg"):
                continue  # summary.json embeds wall time
            twin = tmp_path / "run2" / sub.name / f.name
            if not filecmp.cmp(f, twin, shallow=False):
                mismatches.append(f"{sub.name}/{f.name}")
    manifest_same = filecmp.cmp(tmp_path / "run1" / "manifest.json",
                                tmp_path / "run2" / "manifest.json", shallow=False)
    ok = elapsed < 300.0 and not mismatches and manifest_same and len(first) == 12
    report(13, ok, f"reproduce-all {elapsed:.1f}s (< 300s), "
                   f"{len(first)} runs, byte-identical re-run "
                   f"(mismatches: {mismatches or 'none'})")
