import numpy as np
import pytest

from epspline import (
    ExpSpace,
    GreedyConfig,
    InvalidInputError,
    build_basis,
    f_greedy,
    fit,
    lambda_greedy,
)
from epspline.interpolate import Interpolant
from epspline.nodes import chebyshev_lobatto, equispaced, halton


def cfg(**kw):
    kw.setdefault("alpha", 2.0)
    return GreedyConfig(**kw)


def test_spline_greedies_never_densify(forbid_dense):
    cand = np.linspace(-1, 1, 60)
    _, _, trace = f_greedy(cand, np.arctan(20 * cand), cfg(max_iter=15))
    assert len(trace.steps) == 12 and np.isfinite(trace.steps[-1].kappa2)
    _, trace = lambda_greedy(cand, cfg(max_iter=15))
    assert len(trace.steps) == 12 and np.isfinite(trace.steps[-1].kappa2)


class TestFGreedy:
    def test_zero_values_terminate_immediately(self):
        cand = np.linspace(-1, 1, 50)
        selected, interp, trace = f_greedy(cand, np.zeros(50), cfg(tau=1e-6))
        assert len(selected) == 4
        assert trace.stop_reason == "tau"
        assert trace.selected_indices() == []

    def test_in_span_of_initial_basis_terminates_at_once(self):
        cand = np.linspace(-1, 1, 40)
        init = cand[[0, 1, 38, 39]]
        basis = build_basis(init, ExpSpace(2.0))
        coef = np.array([0.3, -1.2, 0.8, 0.5])
        target = Interpolant(basis=basis, coefficients=coef)
        selected, interp, trace = f_greedy(cand, target(cand), cfg(tau=1e-6))
        assert len(selected) == 4
        assert trace.steps[-1].criterion <= 1e-9

    def test_tau_guarantee_on_termination(self):
        f = lambda x: np.sin(4 * x)  # noqa: E731
        cand = np.linspace(-1, 1, 120)
        selected, interp, trace = f_greedy(cand, f(cand), cfg(tau=1e-4))
        assert trace.stop_reason == "tau"
        remaining = np.setdiff1d(cand, selected)
        assert np.abs(f(remaining) - interp(remaining)).max() <= 1e-4

    def test_monotone_growth_and_distinct(self):
        f = lambda x: np.abs(x) ** 1.5  # noqa: E731
        cand = np.linspace(-1, 1, 80)
        selected, _, trace = f_greedy(cand, f(cand), cfg(max_iter=20))
        picks = trace.selected_indices()
        assert len(picks) == len(set(picks)) == 16  # 4 initial + 16 = 20
        assert len(selected) == 20
        assert np.all(np.diff(selected) > 0)
        for k, step in enumerate(trace.steps):
            assert step.n_nodes == 4 + k

    def test_determinism(self):
        f = lambda x: np.arctan(8 * x)  # noqa: E731
        cand = np.linspace(-1, 1, 90)
        runs = [f_greedy(cand, f(cand), cfg(tau=1e-5)) for _ in range(2)]
        assert np.array_equal(runs[0][0], runs[1][0])
        assert [s.selected_index for s in runs[0][2].steps] == \
               [s.selected_index for s in runs[1][2].steps]

    def test_values_length_checked(self):
        with pytest.raises(InvalidInputError):
            f_greedy(np.linspace(0, 1, 10), np.zeros(9), cfg(tau=1.0))

    def test_unsorted_candidates_rejected(self):
        with pytest.raises(InvalidInputError):
            f_greedy(np.array([0.0, 2.0, 1.0, 3.0]), np.zeros(4), cfg(tau=1.0))

    def test_max_iter_caps_total_nodes(self):
        f = lambda x: np.sin(9 * x)  # noqa: E731
        cand = np.linspace(-1, 1, 60)
        selected, _, trace = f_greedy(cand, f(cand), cfg(max_iter=10))
        assert len(selected) == 10
        assert trace.stop_reason == "max_iter"

    def test_max_iter_beyond_candidates_rejected(self):
        with pytest.raises(InvalidInputError):
            f_greedy(np.linspace(0, 1, 10), np.zeros(10), cfg(max_iter=11))

    def test_exhaustion_without_stopping(self):
        cand = np.linspace(-1, 1, 12)
        f = lambda x: np.cos(5 * x)  # noqa: E731
        selected, _, trace = f_greedy(cand, f(cand), cfg())
        assert len(selected) == 12
        assert trace.stop_reason == "exhausted"
        assert trace.steps[-1].criterion is None


class TestLambdaGreedy:
    def test_selection_independent_of_values(self):
        # identical index sequences no matter what data the caller holds
        cand = np.linspace(-1, 1, 60)
        seq = []
        for _ in range(2):
            selected, trace = lambda_greedy(cand, cfg(tau=2.5))
            seq.append([s.selected_index for s in trace.steps])
        assert seq[0] == seq[1]

    def test_full_scale_equispaced_count(self):
        selected, trace = lambda_greedy(np.linspace(-1, 1, 300), cfg(tau=2.0))
        assert trace.stop_reason == "tau"
        assert 20 <= len(selected) <= 48  # reference count for this protocol is 32

    def test_trace_reports_sparsity_growth(self):
        cand = np.linspace(-1, 1, 120)
        _, trace = lambda_greedy(cand, cfg(max_iter=80))
        frac = trace.sparsity_values()
        assert np.all(np.diff(frac) >= -1e-12)

    def test_tau_zero_runs_to_exhaustion(self):
        cand = np.linspace(-1, 1, 10)
        selected, trace = lambda_greedy(cand, cfg(tau=0.0))
        assert len(selected) == 10
        assert trace.stop_reason == "exhausted"


class TestBasisReuse:
    """The loop reuses the previous basis; the from-scratch build is the oracle."""

    @staticmethod
    def from_scratch(monkeypatch):
        import epspline.greedy as greedy_mod

        real = greedy_mod.build_basis
        monkeypatch.setattr(greedy_mod, "build_basis",
                            lambda knots, space, prior=None: real(knots, space))

    @pytest.mark.parametrize("family", [equispaced, chebyshev_lobatto, halton])
    def test_lambda_saturation_unchanged(self, monkeypatch, family):
        cand = family(64)
        reused = lambda_greedy(cand, cfg(tau=0.0))
        self.from_scratch(monkeypatch)
        scratch = lambda_greedy(cand, cfg(tau=0.0))
        assert reused[1].stop_reason == "exhausted"
        assert reused[1].steps == scratch[1].steps


class TestFailureMidLoop:
    @pytest.mark.parametrize("model", ["f_greedy", "lambda_greedy", "kernel_f_greedy"])
    def test_error_carries_partial_trace(self, monkeypatch, model):
        import epspline.greedy as greedy_mod
        import epspline.kernel as kernel_mod
        from epspline import GreedyError, SingularSystemError, kernel_f_greedy

        # the splines factorize a collocation matrix per fit, the kernel solves
        # its saddle system
        module, name = ((kernel_mod, "_solve_saddle") if model == "kernel_f_greedy"
                        else (greedy_mod, "factorize"))
        real = getattr(module, name)
        calls = {"n": 0}

        def flaky(*args):
            calls["n"] += 1
            if calls["n"] > 3:
                raise SingularSystemError("synthetic failure")
            return real(*args)

        monkeypatch.setattr(module, name, flaky)
        cand = np.linspace(-1, 1, 40)
        vals = np.sin(9 * cand)
        run = {
            "f_greedy": lambda: f_greedy(cand, vals, cfg(max_iter=30)),
            "lambda_greedy": lambda: lambda_greedy(cand, cfg(max_iter=30)),
            "kernel_f_greedy": lambda: kernel_f_greedy(cand, vals, max_iter=30),
        }[model]
        with pytest.raises(GreedyError) as err:
            run()
        assert len(err.value.trace.steps) == 3
        assert err.value.trace.stop_reason == "error"
        last_x = err.value.trace.steps[-1].selected_x
        assert f"iteration 3, after inserting x = {last_x!r}: synthetic failure" \
            in str(err.value)

    def test_too_few_candidates_for_default_init(self):
        with pytest.raises(InvalidInputError):
            lambda_greedy(np.linspace(0, 1, 3), cfg(tau=1.0))


class TestConfigValidation:
    def test_negative_tau(self):
        with pytest.raises(InvalidInputError):
            cfg(tau=-1.0)

    def test_bad_alpha(self):
        config = cfg(tau=1.0, alpha=-2.0)
        with pytest.raises(InvalidInputError):
            lambda_greedy(np.linspace(0, 1, 10), config)

    @pytest.mark.parametrize("model", ["f_greedy", "lambda_greedy", "kernel_f_greedy"])
    def test_max_iter_counts_the_initial_set(self, model):
        # every greedy starts from 4 nodes: a cap below that cannot hold
        from epspline import kernel_f_greedy

        cand = np.linspace(-1, 1, 20)
        vals = np.sin(9 * cand)
        run = {
            "f_greedy": lambda k: f_greedy(cand, vals, cfg(max_iter=k))[0],
            "lambda_greedy": lambda k: lambda_greedy(cand, cfg(max_iter=k))[0],
            "kernel_f_greedy": lambda k: kernel_f_greedy(cand, vals, max_iter=k)[0],
        }[model]
        for k in (1, 2, 3):
            with pytest.raises(InvalidInputError, match="initial set"):
                run(k)
        assert len(run(4)) == 4

    def test_non_integral_max_iter(self):
        # a float cap would only be compared against the count of selected nodes
        with pytest.raises(InvalidInputError, match="max_iter must be an integer"):
            cfg(max_iter=5.5)
        assert cfg(max_iter=np.int64(5)).max_iter == 5
