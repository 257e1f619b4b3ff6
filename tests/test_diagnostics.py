import numpy as np
import pytest
from scipy.interpolate import BSpline

from epspline import (
    ExpSpace,
    Interpolant,
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
from epspline.greedy import GreedyConfig
from epspline.nodes import equispaced


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

    def test_accepts_banded(self, colloc8):
        assert cond2(colloc8) == pytest.approx(cond2(colloc8.to_dense()), rel=1e-12)


def _cubic_collocation(knots):
    """Cubic B-spline collocation matrix, each column normalized to 1 at its central knot."""
    E, x = knots.extended, knots.interior
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
    ref = _cubic_collocation(basis.knots)
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
            y = target(basis8.knots.interior)
            interp = fit(basis8, y)
            report = check_error_bound(target, interp, grid400)
            assert report.holds
            assert report.proxy <= 1e-7

    def test_steep_function_on_residual_greedy_nodes(self, grid400):
        f = lambda x: np.arctan(55.0 * np.asarray(x))  # noqa: E731
        cand = np.linspace(-1, 1, 300)
        selected, interp, _ = f_greedy(cand, f(cand), GreedyConfig(alpha=2.0, tau=1e-3))
        report = check_error_bound(f, interp, grid400)
        assert report.status == "ok"
        assert report.holds

    def test_parabola_on_lebesgue_greedy_nodes(self, grid400):
        g = lambda x: np.asarray(x, dtype=float) ** 2  # noqa: E731
        cand = np.linspace(-1, 1, 300)
        selected, _ = lambda_greedy(cand, GreedyConfig(alpha=2.0, tau=3.0))
        basis = build_basis(selected, ExpSpace(2.0))
        interp = fit(basis, g(selected))
        report = check_error_bound(g, interp, grid400)
        assert report.status == "ok"
        assert report.holds


def test_minimax_proxy_below_interpolation_error(basis8):
    # best sup-norm fit cannot be worse than the interpolant itself
    f = lambda x: np.sin(2.5 * np.asarray(x))  # noqa: E731
    proxy, converged = minimax_proxy(basis8, f, grid_size=2001)
    assert converged
    interp = fit(basis8, f(basis8.knots.interior))
    dense = np.linspace(-1, 1, 2001)
    interp_err = np.abs(f(dense) - interp(dense)).max()
    assert proxy <= interp_err * (1 + 1e-9)
