import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from epspline import (
    ExpSpace,
    GreedyConfig,
    GreedyError,
    InvalidInputError,
    build_basis,
    f_greedy,
    fit,
    lambda_greedy,
)
import epspline.greedy as greedy_mod
from epspline.banded import BandedLU
from epspline.greedy import _greedy_loop
from epspline.interpolate import Interpolant
from epspline.nodes import chebyshev_lobatto, equispaced, halton
from oracle import greedy_uncached, lebesgue_by_solve
from strategies import across_gap_ratios


def cfg(**kw):
    kw.setdefault("alpha", 2.0)
    return GreedyConfig(**kw)


def jittered(m: int, seed: int) -> np.ndarray:
    """Equispaced points on [-1, 1], the interior ones moved by up to a third of a step."""
    x = np.linspace(-1.0, 1.0, m)
    x[1:-1] += np.random.default_rng(seed).uniform(-1.0, 1.0, m - 2) * (x[1] - x[0]) / 3.0
    return x


def assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def assert_same_trace(a, b):
    # GreedyStep equality compares the picks, criteria, kappa2 and sparsity exactly
    assert a.steps == b.steps and a.stop_reason == b.stop_reason


def test_spline_greedies_never_densify(forbid_dense):
    cand = np.linspace(-1, 1, 60)
    _, _, trace = f_greedy(cand, np.arctan(20 * cand), cfg(max_iter=15))
    assert len(trace.steps) == 12 and np.isfinite(trace.steps[-1].kappa2)
    _, trace = lambda_greedy(cand, cfg(max_iter=15))
    assert len(trace.steps) == 12 and np.isfinite(trace.steps[-1].kappa2)


class TestLoopContract:
    """``_greedy_loop`` driven by a stub ``refit`` that scores with small integers,
    so that ties are common."""

    @pytest.mark.parametrize("max_iter, stop", [(None, "exhausted"), (9, "max_iter")])
    def test_refit_sees_both_index_sets_and_the_top_score_is_picked(self, max_iter, stop):
        m = 14
        rng = np.random.default_rng(4)
        calls = []

        def refit(selected, remaining):
            scores = rng.integers(0, 3, len(remaining)).astype(float)
            calls.append((selected.copy(), remaining.copy(), scores))
            return None, np.eye(len(selected)), scores

        cand = np.linspace(-1.0, 1.0, m)
        _, _, trace = _greedy_loop(cand, refit, max_iter=max_iter)
        assert trace.stop_reason == stop
        assert len(calls) == len(trace.steps)
        for (selected, remaining, scores), step in zip(calls, trace.steps):
            for part in (selected, remaining):
                assert np.all(np.diff(part) > 0)
            assert np.array_equal(np.sort(np.concatenate([selected, remaining])), np.arange(m))
            # the exhausted record alone has nothing left to score
            assert (len(remaining) == 0) == (step is trace.steps[-1] and stop == "exhausted")
            if step.selected_index is not None:
                assert step.selected_index == remaining[np.argmax(scores)]
        assert [s.selected_index is None for s in trace.steps] \
            == [False] * (len(trace.steps) - 1) + [True]


class TestFGreedy:
    def test_zero_values_terminate_immediately(self):
        cand = np.linspace(-1, 1, 50)
        selected, interp, trace = f_greedy(cand, np.zeros(50), cfg(tau=1e-6))
        assert len(selected) == 4
        assert trace.stop_reason == "tau"
        assert trace.selected_indices() == []

    def test_in_span_of_initial_basis_terminates_at_once(self):
        # data that are a spline on the initial four nodes are reproduced: the
        # first residual is rounding, at most 1e-13 of the data at α ≤ 2. At
        # α = 5 (α·h = 10 on the middle interval) some coefficients leave
        # 2e-11, and at α = 10 the four-node basis does not build.
        cand = equispaced(64)
        init = [0, 1, 62, 63]
        for alpha in (0.5, 2.0):
            basis = build_basis(cand[init], ExpSpace(alpha))
            coef = np.random.default_rng(7).standard_normal(4)
            values = Interpolant(basis=basis, coefficients=coef)(cand)
            tau = 1e-12 * np.abs(values).max()
            selected, _, trace = f_greedy(cand, values, cfg(alpha=alpha, tau=tau))
            assert trace.stop_reason == "tau"
            assert len(trace.steps) == 1 and trace.selected_indices() == []
            assert np.array_equal(selected, cand[init])

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
        cand = jittered(90, seed=3)
        runs = [f_greedy(cand, np.arctan(8 * cand), cfg(tau=1e-5)) for _ in range(2)]
        assert np.array_equal(runs[0][0], runs[1][0])
        assert_same_trace(runs[0][2], runs[1][2])
        assert runs[0][2].stop_reason == "tau"

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

    def test_overflowing_data_fail_at_first_fit(self):
        # data alternating +-1e308 solve to infinite coefficients: the first
        # fit fails, so no criterion is NaN and no pick is an argmax over NaN
        cand = np.linspace(-1, 1, 40)
        with pytest.raises(GreedyError) as err:
            f_greedy(cand, 1e308 * (-1.0) ** np.arange(40), cfg(max_iter=10))
        assert err.value.trace.steps == [] and err.value.trace.stop_reason == "error"
        assert str(err.value).startswith("iteration 0: interpolant not finite")


class TestLambdaGreedy:
    def test_determinism(self):
        cand = jittered(90, seed=3)
        runs = [lambda_greedy(cand, cfg(tau=3.0)) for _ in range(2)]
        assert np.array_equal(runs[0][0], runs[1][0])
        assert_same_trace(runs[0][1], runs[1][1])
        assert runs[0][1].stop_reason == "tau"

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

    def test_solves_nothing(self, monkeypatch):
        # the tables are read from each refit's factorization, which no score solves with
        def refuse(self, b, transpose=False):
            raise AssertionError("a BandedLU solved a system")

        monkeypatch.setattr("epspline.banded.BandedLU.solve", refuse)
        _, trace = lambda_greedy(np.linspace(-1, 1, 40), cfg(max_iter=30))
        assert trace.stop_reason == "max_iter"

    @staticmethod
    def solve_scored(cand, config):
        """The trace of a λ loop that scores Λ by the transposed solve.

        Also returns the list of scored point counts, one per call, so that a
        test sees that the solve scored every step.
        """
        calls = []

        def by_solve(basis, x):
            calls.append(len(x))
            return lebesgue_by_solve(basis, x)

        return greedy_uncached(cand, config, lebesgue=by_solve), calls

    @staticmethod
    def scored_counts(cand, trace):
        return [len(cand) - s.n_nodes for s in trace.steps]

    @pytest.mark.parametrize("family, tau, max_iter", [
        (equispaced, 3.0, None),
        (equispaced, None, 300),
        (chebyshev_lobatto, 3.0, None),
        (halton, 3.0, None),
    ], ids=["3.0-None", "None-300", "chebyshev-3.0-None", "halton-3.0-None"])
    def test_picks_equal_solve_scored_loop(self, family, tau, max_iter):
        # The λ runs of reproduce-all: lgreedy on each family, and
        # saturation_trace (comparison_spline_32 is its first 32 nodes). The
        # first equispaced pick is one of a mirror pair, tied in exact
        # arithmetic, and saturation_trace has near-ties at 3e-15 from step
        # 274 on. The table scores alone pick as a loop scored by the solve.
        cand = family(300)
        _, fast = lambda_greedy(cand, cfg(tau=tau, max_iter=max_iter))
        solve, calls = self.solve_scored(cand, cfg(tau=tau, max_iter=max_iter))
        assert calls == self.scored_counts(cand, solve)
        assert fast.selected_indices() == solve.selected_indices()
        assert fast.stop_reason == solve.stop_reason
        assert np.allclose(fast.criteria(), solve.criteria(), rtol=1e-13, atol=0.0)


class TestBasisReuse:
    """The loop splices each knot into the previous basis; the from-scratch build is the
    oracle."""

    @staticmethod
    def from_scratch(monkeypatch):
        monkeypatch.setattr(greedy_mod, "_inserted", lambda prior, q, knot: build_basis(
            np.insert(prior.knots, q, knot), prior.space))

    @pytest.mark.parametrize("family", [equispaced, chebyshev_lobatto, halton])
    def test_lambda_saturation_unchanged(self, monkeypatch, family):
        cand = family(64)
        reused = lambda_greedy(cand, cfg(tau=0.0))
        self.from_scratch(monkeypatch)
        scratch = lambda_greedy(cand, cfg(tau=0.0))
        assert reused[1].stop_reason == "exhausted"
        assert reused[1].steps == scratch[1].steps


def outcome(run):
    """``(trace, None)`` from ``run()``, or the trace and message of its ``GreedyError``."""
    try:
        return run(), None
    except GreedyError as exc:
        return exc.trace, str(exc)


def assert_same_as_uncached(cand, config, values=None):
    """The greedy's trace, every float compared with ==, against ``oracle.greedy_uncached``."""
    if values is None:
        carried = outcome(lambda: lambda_greedy(cand, config)[1])
    else:
        carried = outcome(lambda: f_greedy(cand, values, config)[2])
    uncached = outcome(lambda: greedy_uncached(cand, config, values))
    assert_same_trace(carried[0], uncached[0])
    assert carried[1] == uncached[1]
    return carried[0]


class TestCarriedValues:
    """Both greedies carry each candidate's interval and segment functions across
    insertions, λ-greedy its basis values too, on a basis spliced from the previous
    one; the oracle builds from scratch and evaluates every candidate again at each
    step."""

    @pytest.mark.parametrize("family", [equispaced, chebyshev_lobatto, halton, "jittered"])
    @pytest.mark.parametrize("model", ["f_greedy", "lambda_greedy"])
    def test_saturation_equals_uncached(self, family, model):
        # running to exhaustion inserts everywhere, beside both ends too: there
        # the new knot enters the support of the end functions, which reach
        # the mirrored outer knots (those stay, since the initial set fixes
        # the end gaps)
        cand = jittered(64, seed=5) if family == "jittered" else family(64)
        values = np.arctan(9 * cand) if model == "f_greedy" else None
        trace = assert_same_as_uncached(cand, cfg(alpha=5.0, tau=0.0), values)
        assert trace.stop_reason == "exhausted"
        assert {2, len(cand) - 3} <= set(trace.selected_indices())

    @pytest.mark.parametrize("model", ["f_greedy", "lambda_greedy"])
    def test_insertions_beside_both_ends_first(self, model):
        # a gap beside each end draws early picks to indices 2 and m - 3, the
        # residual's by spikes there, while the end intervals are still wide
        cand = np.concatenate([[-1.0, -0.999], np.linspace(-0.6, 0.6, 30), [0.999, 1.0]])
        values = np.zeros(len(cand))
        values[[2, -3]] = 1.0
        trace = assert_same_as_uncached(cand, cfg(max_iter=20),
                                        values if model == "f_greedy" else None)
        assert {2, len(cand) - 3} <= set(trace.selected_indices()[:4])

    @settings(deadline=None, max_examples=40)
    @across_gap_ratios
    def test_equals_uncached_across_gap_ratios(self, log_gaps, log_alpha_h):
        # alpha * (b - a) is the drawn alpha * h, so the first fits are in
        # range; a fit that fails must fail the same way in both
        assume(len(log_gaps) >= 3)
        cand = np.concatenate([[0.0], np.cumsum(10.0 ** np.array(log_gaps))])
        config = cfg(alpha=10.0 ** log_alpha_h / cand[-1], tau=0.0)
        assert_same_as_uncached(cand, config)
        assert_same_as_uncached(cand, config, np.cos(7.0 * cand / cand[-1]))


def assert_fresh_at_every_step(cand, config, values=None):
    """At each step of ``f_greedy`` on ``values``, or of ``lambda_greedy`` if they are None,
    every remaining candidate's carried interval and segment functions have the bits of a
    fresh ``_search``, and the basis values λ-greedy scores with those of a fresh
    ``active_values``; no basis of the run holds a located point set afterwards. Returns
    the number of steps checked."""
    real_loop, real_lebesgue = greedy_mod._spline_loop, BandedLU.lebesgue
    bases, fresh = [], []

    def spy_loop(cand, config, model):
        def checked(basis, lu, selected, remaining, interval, g, stale):
            i, want = basis._search(cand[remaining])
            assert_same_bits(interval[remaining], i)
            assert_same_bits(g[:, remaining], want)
            bases.append(basis)
            fresh.append(dataclasses.replace(basis).active_values(cand[remaining]))
            return model(basis, lu, selected, remaining, interval, g, stale)

        return real_loop(cand, config, checked)

    def spy_lebesgue(lu, interval, beta):
        assert_same_bits(interval, fresh[-1][0])
        assert_same_bits(beta, fresh[-1][1])
        return real_lebesgue(lu, interval, beta)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(greedy_mod, "_spline_loop", spy_loop)
        patch.setattr(BandedLU, "lebesgue", spy_lebesgue)
        if values is None:
            outcome(lambda: lambda_greedy(cand, config))
        else:
            outcome(lambda: f_greedy(cand, values, config))
    assert all(basis._located == () for basis in bases)
    return len(bases)


class TestCarriedState:
    """What the greedies carry across insertions is what a fresh search gives, bit for bit."""

    @settings(deadline=None, max_examples=30)
    @given(family=st.sampled_from([equispaced, chebyshev_lobatto, halton]),
           m=st.integers(5, 60), log_alpha=st.floats(-1.0, 0.5), residual=st.booleans())
    def test_node_families(self, family, m, log_alpha, residual):
        # alpha * (b - a) <= 6.4: every build of the run is in range
        cand = family(m)
        values = np.arctan(9.0 * cand) if residual else None
        config = cfg(alpha=10.0 ** log_alpha, tau=0.0)
        assert assert_fresh_at_every_step(cand, config, values) > 0

    @settings(deadline=None, max_examples=30)
    @across_gap_ratios
    def test_across_gap_ratios(self, log_gaps, log_alpha_h):
        assume(len(log_gaps) >= 4)
        cand = np.concatenate([[0.0], np.cumsum(10.0 ** np.array(log_gaps))])
        config = cfg(alpha=10.0 ** log_alpha_h / cand[-1], tau=0.0)
        assert_fresh_at_every_step(cand, config)
        assert_fresh_at_every_step(cand, config, np.cos(7.0 * cand / cand[-1]))


class TestExactInvariance:
    """Scalings by powers of two that leave every rounding the same."""

    @pytest.mark.parametrize("family", [equispaced, chebyshev_lobatto, halton])
    def test_lambda_greedy_under_x_times_4(self, family):
        # 4·x with α/4 leaves every α·h and every local coordinate as it was
        cand = family(300)
        _, trace = lambda_greedy(cand, cfg(alpha=2.0, max_iter=60))
        _, scaled = lambda_greedy(4.0 * cand, cfg(alpha=0.5, max_iter=60))
        assert scaled.steps == [dataclasses.replace(s, selected_x=4.0 * s.selected_x)
                                for s in trace.steps[:-1]] + [trace.steps[-1]]
        assert scaled.stop_reason == trace.stop_reason == "max_iter"

    @pytest.mark.parametrize("family", [equispaced, chebyshev_lobatto, halton])
    def test_f_greedy_under_values_times_8(self, family):
        cand = family(300)
        values = np.arctan(55.0 * cand)
        _, _, trace = f_greedy(cand, values, cfg(tau=1e-3))
        _, _, scaled = f_greedy(cand, 8.0 * values, cfg(tau=8e-3))
        assert scaled.steps == [dataclasses.replace(s, criterion=8.0 * s.criterion)
                                for s in trace.steps]
        assert scaled.stop_reason == trace.stop_reason == "tau"


class TestFailureMidLoop:
    @pytest.mark.parametrize("model, site", [
        pytest.param("f_greedy", "factorize", id="f_greedy"),
        pytest.param("lambda_greedy", "lebesgue_tables", id="lambda_greedy"),
        pytest.param("kernel_f_greedy", "_solve_saddle", id="kernel_f_greedy"),
        pytest.param("f_greedy", "Interpolant._combine", id="f_greedy-score"),
        pytest.param("kernel_f_greedy", "KernelInterpolant.__call__", id="kernel_f_greedy-score"),
    ])
    def test_error_carries_partial_trace(self, monkeypatch, model, site):
        import epspline.kernel as kernel_mod
        from epspline import GreedyError, KernelInterpolant, SingularSystemError, kernel_f_greedy

        # f-greedy factorizes a collocation matrix per fit, λ-greedy reads
        # its Lebesgue tables from that factorization, the kernel solves its
        # saddle system; both residual greedies score their interpolant at
        # the remaining candidates once per iteration, f-greedy through
        # Interpolant._combine from the carried intervals, the kernel by a call
        module, name = {"factorize": (greedy_mod, "factorize"),
                        "lebesgue_tables": (BandedLU, "lebesgue_tables"),
                        "_solve_saddle": (kernel_mod, "_solve_saddle"),
                        "Interpolant._combine": (Interpolant, "_combine"),
                        "KernelInterpolant.__call__": (KernelInterpolant, "__call__")}[site]
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

    def test_table_pivot_failure_carries_partial_trace(self, monkeypatch):
        # a pivot floor of 0.3 |A| passes the first node set of 40 equispaced
        # candidates and fails the second, whose smallest forward pivot is 0.822
        # against |A| = 2.97
        monkeypatch.setattr("epspline.banded.PIVOT_RTOL", 0.3)
        with pytest.raises(GreedyError) as err:
            lambda_greedy(np.linspace(-1, 1, 40), cfg(max_iter=30))
        assert len(err.value.trace.steps) == 1
        assert err.value.trace.stop_reason == "error"
        last_x = err.value.trace.steps[-1].selected_x
        assert f"iteration 1, after inserting x = {last_x!r}: collocation row 1: forward " \
            "pivot 0.822" in str(err.value)

    @settings(max_examples=25, deadline=None)
    @given(anchor=st.one_of(st.just(20), st.integers(1, 39)), log_k=st.floats(0.0, 12.0),
           side=st.sampled_from([-1.0, 1.0]))
    # 1 ULP beside 0.25, and 1e12 of the subnormal ULP beside 0
    @example(anchor=25, log_k=0.0, side=1.0)
    @example(anchor=20, log_k=12.0, side=-1.0)
    def test_near_coincident_candidate_finishes_or_raises(self, anchor, log_k, side):
        # 41 equispaced candidates and one k ULPs beside the anchor: beside 0 the gap
        # is subnormal, k * 5e-324; elsewhere at most about 1e-4
        cand = np.linspace(-1.0, 1.0, 41)
        near = cand[anchor] + side * round(10.0 ** log_k) * np.spacing(cand[anchor])
        cand = np.sort(np.append(cand, near))
        assert len(np.unique(cand)) == 42
        runs = {"f_greedy": lambda: f_greedy(cand, np.sin(9.0 * cand), cfg(tau=0.0))[2],
                "lambda_greedy": lambda: lambda_greedy(cand, cfg(tau=0.0))[1]}
        for model, run in runs.items():
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                trace, message = outcome(run)
            fields = [v for s in trace.steps for v in dataclasses.astuple(s) if v is not None]
            assert not np.isnan(fields).any(), model
            if message is None:
                assert trace.stop_reason in ("tau", "exhausted"), model
                continue
            assert trace.stop_reason == "error", model
            where = f"iteration {len(trace.steps)}"
            if trace.steps:
                where += f", after inserting x = {trace.steps[-1].selected_x!r}: "
            assert message.startswith(where), (model, message)

    def test_too_few_candidates_for_default_init(self):
        with pytest.raises(InvalidInputError):
            lambda_greedy(np.linspace(0, 1, 3), cfg(tau=1.0))


class TestConfigValidation:
    def test_negative_tau(self):
        with pytest.raises(InvalidInputError):
            cfg(tau=-1.0)

    @pytest.mark.parametrize("tau", ["1", 1j, [1.0], True, np.bool_(True), 10 ** 400],
                             ids=["str", "complex", "list", "bool", "numpy-bool", "huge-int"])
    @pytest.mark.parametrize("run", ["GreedyConfig", "kernel_f_greedy"])
    def test_tau_must_be_a_real_number(self, run, tau):
        from epspline import kernel_f_greedy

        cand = np.linspace(-1, 1, 20)
        with pytest.raises(InvalidInputError, match="tau must be a nonnegative finite real"):
            if run == "GreedyConfig":
                cfg(tau=tau)
            else:
                kernel_f_greedy(cand, np.sin(9 * cand), tau=tau)

    def test_bad_alpha(self):
        # rejected on construction, not on the loop's first refit
        with pytest.raises(InvalidInputError, match="alpha"):
            cfg(tau=1.0, alpha=-2.0)

    @pytest.mark.parametrize("alpha", [0.0, np.nan, np.inf, "2", True, None])
    def test_alpha_checked_like_exp_space(self, alpha):
        with pytest.raises(InvalidInputError, match="alpha must be a positive finite real"):
            cfg(alpha=alpha)
        assert cfg(alpha=np.float32(2.0)).alpha == 2.0

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
