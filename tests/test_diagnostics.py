import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.interpolate import BSpline
from scipy.linalg import eigvals_banded
from scipy.linalg.lapack import dsbevx

import epspline
import epspline.diagnostics as diagnostics
from epspline import (
    BandedMatrix,
    BasisConstructionError,
    ExpSpace,
    Interpolant,
    InvalidInputError,
    SplineError,
    build_basis,
    check_error_bound,
    collocation_matrix,
    cond2,
    f_greedy,
    fit,
    lambda_greedy,
    minimax_proxy,
    skeel_condition,
    sparsity,
)
from epspline.diagnostics import _banded_eigenvalue, _interleaved_eigenvalue, _scaled_diagonals
from epspline.greedy import GreedyConfig
from epspline.nodes import chebyshev_lobatto, equispaced
from oracle import padded_knots
from strategies import across_gap_ratios, gap_ratio_basis


class TestCond2:
    def test_identity(self):
        assert cond2(np.eye(5)) == pytest.approx(1.0, abs=1e-12)

    def test_diagonal(self):
        assert cond2(np.diag([1.0, 10.0])) == pytest.approx(10.0, abs=1e-12)

    def test_orthogonal_is_one(self):
        rng = np.random.default_rng(0)
        q, _ = np.linalg.qr(rng.normal(size=(12, 12)))
        assert cond2(q) == pytest.approx(1.0, abs=1e-10)

    def test_singular_reports_inf(self):
        a = np.ones((4, 4))
        assert cond2(a) == float("inf")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_reports_inf(self, bad):
        a = np.eye(4)
        a[1, 2] = bad
        assert cond2(a) == float("inf")

    def test_subnormal_matrix(self):
        # [[1, 1], [0, 1]] has κ₂ = φ²; on subnormal entries LAPACK's own
        # scaling left the dense SVD 1e-11 relative off
        d = 2.2250738585e-313
        m = BandedMatrix([0.0], [d, d], [d])
        golden2 = (3.0 + np.sqrt(5.0)) / 2.0
        assert cond2(m.to_dense()) == pytest.approx(golden2, rel=4 * EPS)
        assert cond2(m) == pytest.approx(golden2, rel=4 * EPS)

    def test_accepts_banded(self, colloc8):
        assert cond2(colloc8) == pytest.approx(cond2(colloc8.to_dense()), rel=1e-12)


EPS = np.finfo(float).eps
# Dense SVD and banded κ₂ are both backward stable: each gets σ_min / σ_max to
# a few eps absolute (the two differed by at most 1.7 eps on 3 300 random and
# collocation matrices), so they agree to a relative COND2_EPS_MULTIPLE·eps·κ₂.
COND2_EPS_MULTIPLE = 16


def assert_cond2_matches_dense(m):
    got, want = cond2(m), cond2(m.to_dense())
    # 1/κ₂ is σ_min / σ_max, and 0 for inf; a side reports inf once its 1/κ₂
    # falls to n·eps, so a finite value facing inf lies near that threshold
    slack = m.n * EPS if np.isinf(got) or np.isinf(want) else 0.0
    assert abs(1 / got - 1 / want) <= COND2_EPS_MULTIPLE * EPS + slack


@st.composite
def tridiagonals(draw):
    """Random tridiagonal matrices with exact zeros."""
    n = draw(st.integers(1, 60))
    entries = np.array(draw(st.lists(st.one_of(st.just(0.0), st.floats(-1e3, 1e3)),
                                     min_size=3 * n - 2, max_size=3 * n - 2)))
    return BandedMatrix(entries[:n - 1], entries[n - 1:2 * n - 1], entries[2 * n - 1:])


class TestBandedMatchesDense:
    @settings(deadline=None)
    @given(tridiagonals())
    def test_random_tridiagonal(self, m):
        assert_cond2_matches_dense(m)
        assert sparsity(m) == sparsity(m.to_dense())

    @settings(deadline=None)
    @given(log_gaps=st.lists(st.floats(-6.0, 0.0), min_size=1, max_size=40),
           log_alpha_h=st.floats(-3.0, 1.0))
    def test_collocation_across_gap_ratios(self, log_gaps, log_alpha_h):
        gaps = 10.0 ** np.array(log_gaps)
        try:
            basis = build_basis(np.concatenate([[0.0], np.cumsum(gaps)]),
                                ExpSpace(10.0 ** log_alpha_h / gaps.max()))
            m = collocation_matrix(basis)
        except BasisConstructionError:
            m = None
        assume(m is not None)
        assert_cond2_matches_dense(m)
        assert sparsity(m) == sparsity(m.to_dense())

    @pytest.mark.parametrize("scale", [2.0 ** -560, 2.0 ** 530])
    def test_scale_free(self, colloc8, scale):
        # without the internal rescaling AᵀA would underflow or overflow here
        m = BandedMatrix(colloc8.lower * scale, colloc8.diag * scale, colloc8.upper * scale)
        assert cond2(m) == cond2(colloc8)

    @settings(deadline=None)
    @given(tridiagonals(), st.data())
    def test_zero_row_or_nan_gives_inf(self, m, data):
        n = m.n
        i = data.draw(st.integers(0, n - 1))
        zero_row = BandedMatrix(m.lower, m.diag, m.upper)
        zero_row.diag[i] = 0.0
        zero_row.lower[i - 1:i] = 0.0  # (i, i - 1), if i > 0
        zero_row.upper[i:i + 1] = 0.0  # (i, i + 1), if i < n - 1
        assert cond2(zero_row) == cond2(zero_row.to_dense()) == np.inf
        in_matrix = ([("diag", j) for j in range(n)] + [("upper", j) for j in range(n - 1)]
                     + [("lower", j) for j in range(n - 1)])
        name, j = data.draw(st.sampled_from(in_matrix))
        getattr(m, name)[j] = np.nan
        assert cond2(m) == cond2(m.to_dense()) == np.inf


# κ₂ ≈ 3.0, below the switch; and κ₂ ≈ 2.6e6, above it: the first λ-greedy
# step on 300 Chebyshev candidates, the initial four plus its pick, index 149
WELL_CONDITIONED = equispaced(40)
ILL_CONDITIONED = chebyshev_lobatto(300)[[0, 1, 149, 298, 299]]


def gap_ratio_example(nodes, alpha=2.0):
    """The ``across_gap_ratios`` draw whose basis is the one on ``nodes``, shifted."""
    gaps = np.diff(nodes)
    return example(log_gaps=np.log10(gaps).tolist(), log_alpha_h=np.log10(alpha * gaps.max()))


def assert_cond2_matches_interleaved(m):
    # 1/κ₂ as σ_min / σ_max of the interleaved form, through the call the
    # switch falls back to, on the same scaled diagonals
    diagonals, n = _scaled_diagonals(m), m.n
    want = 0.0 if diagonals is None else (_interleaved_eigenvalue(diagonals, n)
                                          / _interleaved_eigenvalue(diagonals, 2 * n - 1))
    got = 1 / cond2(m)
    if got == 0.0:
        assert want <= n * EPS * (1 + 1e-12)
    else:
        assert abs(got - want) <= 1e-12 * want


class TestGramSwitch:
    """κ₂ from AᵀA up to ``GRAM_COND2_MAX``, from the interleaved form above it."""

    @settings(deadline=None)
    @across_gap_ratios
    @gap_ratio_example(WELL_CONDITIONED)
    @gap_ratio_example(ILL_CONDITIONED)
    def test_collocation_across_gap_ratios(self, log_gaps, log_alpha_h):
        assert_cond2_matches_interleaved(collocation_matrix(gap_ratio_basis(log_gaps, log_alpha_h)))

    @settings(deadline=None)
    @given(tridiagonals())
    def test_random_tridiagonal(self, m):
        assert_cond2_matches_interleaved(m)

    @pytest.mark.parametrize("nodes, calls", [(WELL_CONDITIONED, 2), (ILL_CONDITIONED, 3)],
                             ids=["gram", "interleaved"])
    def test_calls_per_matrix(self, monkeypatch, nodes, calls):
        m = collocation_matrix(build_basis(nodes, ExpSpace(2.0)))
        seen = []

        def counting(*args, **kwargs):
            seen.append(args[0].shape)
            return dsbevx(*args, **kwargs)

        monkeypatch.setattr(diagnostics, "dsbevx", counting)
        kappa = cond2(m)
        assert seen == [(3, m.n)] * 2 + [(4, 2 * m.n)] * (calls - 2)
        assert (kappa <= diagnostics.GRAM_COND2_MAX) == (calls == 2)

    @settings(deadline=None)
    @given(tridiagonals(), st.data())
    def test_direct_call_equals_eigvals_banded(self, m, data):
        # upper bands shaped as cond2's, kd = 2 and kd = 3: one eigenvalue each, bit for bit
        diagonals = _scaled_diagonals(m)
        assume(diagonals is not None)
        lower, diag, upper = diagonals
        gram = np.zeros((3, m.n))
        gram[2], gram[1, 1:], gram[0, 2:] = diag ** 2, diag[:-1] * upper, lower[:-1] * upper[1:]
        jw = np.zeros((4, 2 * m.n))
        jw[2, 1::2], jw[2, 2::2], jw[0, 3::2] = diag, lower, upper
        for band in (gram, jw):
            k = data.draw(st.integers(0, band.shape[1] - 1))
            want = eigvals_banded(band, select="i", select_range=(k, k))[0]
            assert np.float64(_banded_eigenvalue(band, k)).view(np.uint64) \
                == np.float64(want).view(np.uint64)


def _cubic_collocation(basis):
    """Cubic B-spline collocation matrix on the basis' knots, padded as in the oracle,
    each column normalized to 1 at its central knot."""
    E, x = padded_knots(basis), basis.knots
    a = np.zeros((len(x), len(x)))
    for j in range(len(x)):
        b = BSpline.basis_element(E[j:j + 5], extrapolate=False)
        a[:, j] = np.nan_to_num(b(x)) / b(E[j + 2])
    return a


@pytest.mark.parametrize("alpha", [0.05, 0.5, 2.0])
def test_collocation_and_cond2_match_cubic_oracle(alpha):
    # As alpha*h -> 0 the exp-spline tends to the cubic B-spline on the same
    # knots, with an O((alpha*h)^2) gap. The odd-index holes give 2:1 gaps, as
    # in the late Lebesgue-greedy picks.
    x = np.delete(equispaced(61), np.arange(21, 40, 2))
    tol = 0.1 * (alpha * np.diff(x).max()) ** 2
    basis = build_basis(x, ExpSpace(alpha))
    a = collocation_matrix(basis).to_dense()
    ref = _cubic_collocation(basis)
    assert np.abs(a - ref).max() <= tol
    assert cond2(a) == pytest.approx(cond2(ref), rel=tol)


class TestSkeel:
    def test_identity(self):
        assert skeel_condition(np.eye(6)) == pytest.approx(1.0, abs=1e-12)

    def test_any_diagonal_is_one(self):
        assert skeel_condition(np.diag([3.0, -0.5, 7.0])) == pytest.approx(1.0, abs=1e-12)

    def test_row_scaling_invariance(self):
        rng = np.random.default_rng(1)
        for seed in range(5):
            a = np.random.default_rng(seed).normal(size=(8, 8)) + 4 * np.eye(8)
            d = np.diag(np.exp(rng.uniform(-3, 3, size=8)))
            assert skeel_condition(d @ a) == pytest.approx(skeel_condition(a), rel=1e-8)

    def test_bounded_by_inf_condition(self):
        for seed in range(8):
            a = np.random.default_rng(seed).normal(size=(10, 10)) + 5 * np.eye(10)
            inv = np.linalg.inv(a)
            cond_inf = np.abs(a).sum(axis=1).max() * np.abs(inv).sum(axis=1).max()
            assert skeel_condition(a) <= cond_inf * (1 + 1e-12)

    def test_singular_reports_inf(self):
        assert skeel_condition(np.zeros((3, 3))) == float("inf")


@pytest.mark.parametrize("measure", [cond2, sparsity, skeel_condition])
@pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0)])
def test_empty_matrix_rejected(measure, shape):
    with pytest.raises(InvalidInputError, match=r"expected a nonempty matrix, got shape"):
        measure(np.empty(shape))


class TestSparsity:
    def test_identity_three(self):
        assert sparsity(np.eye(3)) == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_all_ones(self):
        assert sparsity(np.ones((2, 2))) == 0.0

    def test_banded_collocation_large(self):
        basis = build_basis(np.linspace(-1, 1, 100), ExpSpace(2.0))
        from epspline import collocation_matrix

        frac = sparsity(collocation_matrix(basis).to_dense())
        n = 100
        assert frac >= (n * n - 5 * n) / (n * n)


class TestErrorBound:
    def test_in_space_target_never_violates(self, basis8, grid400):
        rng = np.random.default_rng(2)
        for _ in range(3):
            coef = rng.normal(size=8)
            target = Interpolant(basis=basis8, coefficients=coef)
            y = target(basis8.knots)
            interp = fit(basis8, y)
            report = check_error_bound(target, interp, grid400)
            assert report.holds
            assert report.proxy <= 1e-7

    def test_steep_function_on_residual_greedy_nodes(self, grid400):
        f = lambda x: np.arctan(55.0 * np.asarray(x))  # noqa: E731
        cand = np.linspace(-1, 1, 300)
        selected, interp, _ = f_greedy(cand, f(cand), GreedyConfig(alpha=2.0, tau=1e-3))
        report = check_error_bound(f, interp, grid400)
        assert report.holds

    def test_parabola_on_lebesgue_greedy_nodes(self, grid400):
        g = lambda x: np.asarray(x, dtype=float) ** 2  # noqa: E731
        cand = np.linspace(-1, 1, 300)
        selected, _ = lambda_greedy(cand, GreedyConfig(alpha=2.0, tau=3.0))
        basis = build_basis(selected, ExpSpace(2.0))
        interp = fit(basis, g(selected))
        report = check_error_bound(g, interp, grid400)
        assert report.holds

    def test_empty_grid_rejected(self, basis8):
        interp = fit(basis8, np.zeros(8))
        with pytest.raises(InvalidInputError, match="empty"):
            check_error_bound(np.sin, interp, [])


def test_non_finite_target_rejected(basis8, grid400):
    # NaN at one point of the proxy grid, or only on the checked grid
    interp = fit(basis8, np.zeros(8))
    at_zero = lambda x: np.where(np.asarray(x) == 0.0, np.nan, 0.0)  # noqa: E731
    off_proxy_grid = lambda x: np.where(np.isin(x, grid400[1:2]), np.inf, 0.0)  # noqa: E731
    with pytest.raises(InvalidInputError):
        minimax_proxy(basis8, at_zero)
    with pytest.raises(InvalidInputError):
        check_error_bound(at_zero, interp, grid400)
    with pytest.raises(InvalidInputError):
        check_error_bound(off_proxy_grid, interp, grid400)


@pytest.mark.parametrize("nodes, f", [
    (np.linspace(-1.0, 1.0, 8), lambda x: np.sin(2.5 * np.asarray(x))),
    (chebyshev_lobatto(150), lambda x: np.arctan(55.0 * np.asarray(x))),
], ids=["sin_equispaced8", "atan55_chebyshev150"])
def test_minimax_proxy_below_interpolation_error(space2, nodes, f):
    # best sup-norm fit cannot be worse than the interpolant itself
    basis = build_basis(nodes, space2)
    proxy = minimax_proxy(basis, f)
    interp = fit(basis, f(basis.knots))
    dense = np.linspace(-1, 1, 2001)
    interp_err = np.abs(f(dense) - interp(dense)).max()
    assert proxy <= interp_err * (1 + 1e-9)


def test_import_leaves_scipy_optimize_unloaded():
    # minimax_proxy imports linprog on first call; a top-level import of
    # scipy.optimize would add 0.2-0.4 s to every ``import epspline``
    code = "import epspline, sys; print('scipy.optimize' in sys.modules)"
    src = Path(epspline.__file__).resolve().parent.parent
    out = subprocess.run([sys.executable, "-c", code], cwd=src, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


def test_failed_linear_program_raises(basis8, monkeypatch):
    import scipy.optimize

    def not_solved(*args, **kwargs):
        return scipy.optimize.OptimizeResult(status=4, message="numerical difficulties")

    monkeypatch.setattr(scipy.optimize, "linprog", not_solved)
    with pytest.raises(SplineError, match="numerical difficulties"):
        minimax_proxy(basis8, np.sin)
