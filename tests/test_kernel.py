import numpy as np
import pytest

from epspline import (
    ExpSpace,
    GreedyConfig,
    InvalidInputError,
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


class TestKernelGreedy:
    def test_zero_values_terminate_immediately(self):
        cand = np.linspace(-1, 1, 40)
        selected, trace = kernel_f_greedy(cand, np.zeros(40), tau=1e-8)
        assert len(selected) == 4
        assert trace.stop_reason == "tau"

    def test_near_uniform_distribution_for_smooth_target(self):
        cand = np.linspace(-1, 1, 300)
        selected, _ = kernel_f_greedy(cand, cand**2, max_iter=32)
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
        assert [s.selected_index for s in a[1].steps] == \
               [s.selected_index for s in b[1].steps]

    def test_tau_guarantee(self):
        cand = np.linspace(-1, 1, 100)
        vals = np.sin(3 * cand)
        selected, trace = kernel_f_greedy(cand, vals, tau=1e-3)
        assert trace.stop_reason == "tau"
        assert trace.steps[-1].criterion <= 1e-3

    def test_monotone_growth(self):
        cand = np.linspace(-1, 1, 50)
        _, trace = kernel_f_greedy(cand, np.exp(cand), max_iter=20)
        picks = trace.selected_indices()
        assert len(picks) == len(set(picks)) == 16

    def test_one_saddle_matrix_per_iteration(self, monkeypatch):
        import epspline.kernel as kernel_mod

        real = kernel_mod._saddle_matrix
        calls = []
        monkeypatch.setattr(kernel_mod, "_saddle_matrix",
                            lambda x: calls.append(len(x)) or real(x))
        cand = np.linspace(-1, 1, 40)
        _, trace = kernel_f_greedy(cand, np.sin(3 * cand), max_iter=12)
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
