import numpy as np
import pytest

from epspline import (
    ExpSpace,
    GreedyConfig,
    GreedyError,
    InvalidInputError,
    SingularSystemError,
    build_basis,
    f_greedy,
    fit,
    kernel_f_greedy,
    tps_fit,
    tps_kernel,
)


class TestKernel:
    def test_zero_at_origin_and_one(self):
        assert tps_kernel(np.array([0.0]))[0] == 0.0
        assert tps_kernel(np.array([1.0]))[0] == 0.0

    def test_positive_beyond_one(self):
        assert tps_kernel(np.array([2.0]))[0] == pytest.approx(4.0 * np.log(2.0))


class TestTpsFit:
    def test_linear_data_reproduced_by_tail(self):
        x = np.linspace(-1, 1, 10)
        y = 3.0 - 2.0 * x
        model = tps_fit(x, y)
        assert np.abs(model.weights).max() <= 1e-8
        dense = np.linspace(-1, 1, 500)
        assert np.abs(model(dense) - (3.0 - 2.0 * dense)).max() <= 1e-8

    def test_interpolation_conditions(self):
        rng = np.random.default_rng(0)
        x = np.sort(rng.uniform(-1, 1, size=10))
        y = rng.normal(size=10)
        model = tps_fit(x, y)
        err = np.abs(model(x) - y)
        assert err.max() <= 1e-8 * max(1.0, np.abs(y).max())

    def test_moment_constraints(self):
        rng = np.random.default_rng(1)
        x = np.linspace(0, 2, 12)
        model = tps_fit(x, rng.normal(size=12))
        assert abs(model.weights.sum()) <= 1e-10
        assert abs((model.weights * x).sum()) <= 1e-10

    def test_too_few_points(self):
        with pytest.raises(InvalidInputError):
            tps_fit([0.0, 1.0], [0.0, 1.0])

    def test_duplicates_rejected(self):
        with pytest.raises(InvalidInputError):
            tps_fit([0.0, 0.0, 1.0], [0.0, 0.0, 1.0])

    @pytest.mark.parametrize("x,y", [([0.0, 1.0, 2.0], [0.0, np.nan, 1.0]),
                                     ([0.0, 1.0, 2.0], [0.0, np.inf, 1.0]),
                                     ([0.0, 1.0, np.inf], [0.0, 0.0, 1.0]),
                                     ([0.0, np.nan, 2.0], [0.0, 0.0, 1.0])])
    def test_non_finite_rejected(self, x, y):
        with pytest.raises(InvalidInputError):
            tps_fit(x, y)

    def test_array_of_any_shape_matches_scalar_calls(self):
        model = tps_fit([-1.0, -0.2, 0.5, 1.0], [0.3, -1.0, 2.0, 0.0])
        x = np.linspace(-1.0, 1.0, 24)
        for points in (x.reshape(4, 6), x.reshape(2, 3, 4), x.reshape(4, 6).T, x[:1].reshape(1, 1),
                       x[:0].reshape(0, 3)):
            got = model(points)
            assert got.shape == points.shape
            assert np.array_equal(got, model(points.ravel()).reshape(points.shape))
            # a matrix-vector product and a one-row one may round their sums differently
            scalar = np.vectorize(model, otypes=[float])(points)
            assert np.allclose(got, scalar, rtol=0.0, atol=1e-14)

    def test_overflowing_kernel_is_singular(self, capfd):
        # r^2 overflows: an inf saddle matrix is refused before LAPACK sees it
        with pytest.raises(SingularSystemError, match="non-finite"):
            tps_fit([-1e200, 0.0, 1e200], np.ones(3))
        assert capfd.readouterr().err == ""


class TestKernelGreedy:
    def test_zero_values_terminate_immediately(self):
        cand = np.linspace(-1, 1, 40)
        selected, _, trace = kernel_f_greedy(cand, np.zeros(40), tau=1e-8)
        assert len(selected) == 4
        assert trace.stop_reason == "tau"

    def test_overflowing_kernel_fails_at_iteration_0(self):
        # the initial set's saddle matrix overflows; no NaN model is ever fitted
        with pytest.raises(GreedyError, match="^iteration 0: .*non-finite") as info:
            kernel_f_greedy(np.linspace(-1e160, 1e160, 6), np.ones(6))
        assert info.value.trace.steps == [] and info.value.trace.stop_reason == "error"

    def test_near_uniform_distribution_for_smooth_target(self):
        cand = np.linspace(-1, 1, 300)
        selected, _, _ = kernel_f_greedy(cand, cand**2, max_iter=32)
        assert len(selected) == 32
        inner = selected[np.abs(selected) <= 0.8]
        gaps = np.diff(inner)
        assert np.diff(selected).max() <= 3.0 * gaps.min() + 1e-12

    def test_determinism(self):
        cand = np.linspace(-1, 1, 150)
        vals = np.arctan(5 * cand)
        a = kernel_f_greedy(cand, vals, max_iter=25)
        b = kernel_f_greedy(cand, vals, max_iter=25)
        assert np.array_equal(a[0], b[0])
        assert [s.selected_index for s in a[2].steps] == \
               [s.selected_index for s in b[2].steps]

    def test_model_is_the_fit_on_the_selection(self):
        cand = np.linspace(-1, 1, 60)
        vals = np.arctan(5 * cand)
        selected, model, _ = kernel_f_greedy(cand, vals, max_iter=15)
        refit = tps_fit(selected, vals[np.searchsorted(cand, selected)])
        assert np.array_equal(model.centers, selected)
        assert np.array_equal(model.weights, refit.weights)
        assert np.array_equal(model.tail, refit.tail)

    def test_tau_guarantee(self):
        cand = np.linspace(-1, 1, 100)
        vals = np.sin(3 * cand)
        selected, _, trace = kernel_f_greedy(cand, vals, tau=1e-3)
        assert trace.stop_reason == "tau"
        assert trace.steps[-1].criterion <= 1e-3

    def test_monotone_growth(self):
        cand = np.linspace(-1, 1, 50)
        _, _, trace = kernel_f_greedy(cand, np.exp(cand), max_iter=20)
        picks = trace.selected_indices()
        assert len(picks) == len(set(picks)) == 16

    def test_one_saddle_matrix_per_iteration(self, monkeypatch):
        import epspline.kernel as kernel_mod

        real = kernel_mod._saddle_matrix
        calls = []
        monkeypatch.setattr(kernel_mod, "_saddle_matrix",
                            lambda x: calls.append(len(x)) or real(x))
        cand = np.linspace(-1, 1, 40)
        _, _, trace = kernel_f_greedy(cand, np.sin(3 * cand), max_iter=12)
        assert calls == [s.n_nodes for s in trace.steps]

    def test_non_finite_candidates_rejected(self):
        cand = np.linspace(-1, 1, 20)
        bad = cand.copy()
        bad[7] = np.nan
        with pytest.raises(InvalidInputError):
            kernel_f_greedy(bad, np.zeros(20), max_iter=10)
        # target values too, at a candidate outside the initial set, before
        # the loop starts
        basis = build_basis(cand, ExpSpace(2.0))
        for value in (np.nan, np.inf):
            vals = np.zeros(20)
            vals[7] = value
            with pytest.raises(InvalidInputError):
                kernel_f_greedy(cand, vals, max_iter=10)
            with pytest.raises(InvalidInputError):
                f_greedy(cand, vals, GreedyConfig(alpha=2.0, max_iter=10))
            with pytest.raises(InvalidInputError):
                fit(basis, vals)

    @pytest.mark.parametrize("stops", [dict(tau=-1.0), dict(tau=np.inf), dict(max_iter=0),
                                       dict(max_iter=21)])
    def test_stop_rule_checked(self, stops):
        cand = np.linspace(-1, 1, 20)
        with pytest.raises(InvalidInputError):
            kernel_f_greedy(cand, np.zeros(20), **stops)
