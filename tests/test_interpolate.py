import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from epspline import (
    BasisConstructionError,
    DomainError,
    ExpSpace,
    InvalidInputError,
    build_basis,
    cardinal_values,
    collocation_matrix,
    factorize,
    fit,
    lebesgue_constant,
    lebesgue_function,
)
from epspline.interpolate import OUTER_BAND_RTOL, Interpolant, basis_matrix
from epspline.nodes import chebyshev_lobatto, halton
from epspline.space import segment_basis_eval
from oracle import active_values_by_gather, evaluate, segment_value


def dense_collocation(basis):
    """Brute-force oracle: evaluate every basis function at every knot.

    The last knot is the right end of ``[a, b]``. ``evaluate`` takes it from
    the support interval to its right, outside ``[a, b]``; this function
    takes it from the interval to its left, as the interpolant does.
    """
    n = basis.n
    out = np.column_stack([evaluate(basis, j, basis.knots.interior) for j in range(n)])
    for j in range(max(n - 3, 0), n):
        out[-1, j] = segment_value(basis, j, n - j, 1.0)  # interval ending at the last knot
    return out


# knot gaps spread over six orders of magnitude, alpha * (largest gap) up to 30
across_gap_ratios = given(
    log_gaps=st.lists(st.floats(-6.0, 0.0), min_size=1, max_size=40),
    log_alpha_h=st.floats(-3.0, np.log10(30.0)),
)


def gap_ratio_basis(log_gaps, log_alpha_h):
    """The basis on the drawn knot gaps; a failed build is skipped."""
    gaps = 10.0 ** np.array(log_gaps)
    space = ExpSpace(10.0 ** log_alpha_h / gaps.max())
    try:
        basis = build_basis(np.concatenate([[0.0], np.cumsum(gaps)]), space)
    except BasisConstructionError:
        basis = None
    assume(basis is not None)
    return basis


class TestCollocationMatrix:
    def test_unit_diagonal(self, colloc8):
        dense = colloc8.to_dense()
        assert np.allclose(np.diag(dense), 1.0, atol=1e-12)

    def test_perturbed_basis_rejected(self, basis8):
        # basis function 3 no longer vanishes at the left end of its support,
        # which is the interior knot of row 1
        coef = basis8.coef.copy()
        coef[3, 0] += 1e-6
        with pytest.raises(BasisConstructionError, match="row 1:"):
            collocation_matrix(dataclasses.replace(basis8, coef=coef))

    def test_matches_dense_oracle(self, basis8, colloc8):
        assert np.allclose(colloc8.to_dense(), dense_collocation(basis8),
                           rtol=0.0, atol=1e-13)

    def test_nonuniform_matches_oracle(self, space2):
        basis = build_basis(np.array([0.0, 0.3, 0.35, 1.0, 2.2, 2.5]), space2)
        assert np.allclose(collocation_matrix(basis).to_dense(),
                           dense_collocation(basis), rtol=0.0, atol=1e-13)

    @settings(deadline=None)
    @across_gap_ratios
    def test_matches_oracle_across_gap_ratios(self, log_gaps, log_alpha_h):
        basis = gap_ratio_basis(log_gaps, log_alpha_h)
        mat = collocation_matrix(basis)
        # both sides take the last row from cancelling segment terms at tau = 1,
        # summed in another order: allow twice the rounding bound of a 4-term sum
        n = basis.n
        z = basis.space.alpha * np.diff(basis.knots.extended)[n]
        g = np.abs(segment_basis_eval(z, 1.0))
        rounding = np.zeros((n, n))
        for j in range(max(n - 3, 0), n):
            rounding[-1, j] = 8 * np.finfo(float).eps * g @ np.abs(basis.coef[j, n - j])
        gap = np.abs(mat.to_dense() - dense_collocation(basis))
        assert np.all(gap <= OUTER_BAND_RTOL * mat.norm_inf() + rounding)


class TestFit:
    def test_zero_data_zero_coefficients(self, basis8):
        interp = fit(basis8, np.zeros(8))
        assert np.array_equal(interp.coefficients, np.zeros(8))

    def test_single_basis_function_recovered(self, basis8):
        k = 3
        y = np.array([evaluate(basis8, k, x) for x in basis8.knots.interior])
        interp = fit(basis8, y)
        expect = np.zeros(8)
        expect[k] = 1.0
        assert np.allclose(interp.coefficients, expect, atol=1e-9)

    def test_random_in_space_coefficients_recovered(self, basis8):
        rng = np.random.default_rng(7)
        for _ in range(5):
            cstar = rng.normal(size=8)
            y = dense_collocation(basis8) @ cstar
            interp = fit(basis8, y)
            assert np.allclose(interp.coefficients, cstar, rtol=1e-8)

    def test_interpolation_conditions(self, basis8):
        rng = np.random.default_rng(8)
        y = rng.normal(size=8)
        interp = fit(basis8, y)
        got = interp(basis8.knots.interior)
        assert np.max(np.abs(got - y)) <= 1e-9 * max(1.0, np.abs(y).max())

    def test_banded_equals_dense_solve(self, space2):
        for n in (5, 20, 50):
            basis = build_basis(np.linspace(-1, 1, n), space2)
            y = np.sin(3 * basis.knots.interior)
            banded = fit(basis, y)
            dense = np.linalg.solve(collocation_matrix(basis).to_dense(), y)
            assert np.allclose(banded.coefficients, dense, rtol=0.0, atol=1e-10)

    def test_wrong_length_rejected(self, basis8):
        with pytest.raises(InvalidInputError):
            fit(basis8, np.zeros(7))


class TestEvaluation:
    def test_zero_coefficients_evaluate_to_zero(self, basis8, grid400):
        interp = fit(basis8, np.zeros(8))
        assert np.array_equal(interp(grid400), np.zeros(400))

    def test_matches_dense_summation(self, basis8, grid400):
        rng = np.random.default_rng(9)
        y = rng.normal(size=8)
        interp = fit(basis8, y)
        local = interp(grid400)
        dense = np.zeros(400)
        for j in range(8):
            dense += interp.coefficients[j] * evaluate(basis8, j, grid400)
        assert np.max(np.abs(local - dense)) <= 1e-12

    def test_outside_interval_rejected(self, basis8):
        interp = fit(basis8, np.ones(8))
        with pytest.raises(DomainError):
            interp(1.5)
        with pytest.raises(DomainError):
            interp(np.array([-1.0, -1.2]))

    def test_in_space_reproduction_on_dense_grid(self, space2):
        # fit-then-eval reproduces any function from the span
        rng = np.random.default_rng(10)
        basis = build_basis(np.linspace(-1, 1, 20), space2)
        cstar = rng.normal(size=20)
        target = fit(basis, np.zeros(20))
        target = type(target)(basis=basis, coefficients=cstar)
        xs = np.linspace(-1, 1, 1000)
        y = target(basis.knots.interior)
        interp = fit(basis, y)
        err = np.abs(interp(xs) - target(xs))
        assert err.max() <= 1e-7 * max(1.0, np.abs(target(xs)).max())


def knots_and_inside(basis):
    """Every knot (``a`` and ``b`` included) and 7 points inside each interval."""
    x = basis.knots.interior
    tau = np.linspace(0.0, 1.0, 9)[1:-1]
    inside = (x[:-1, None] + np.diff(x)[:, None] * tau).ravel()
    return x, inside


class TestPerIntervalForm:
    """The table ``GBSplineBasis.table`` and the interpolant's rows ``pp``."""

    @staticmethod
    def assert_active_values_equal_gather(basis):
        x = np.concatenate(knots_and_inside(basis))
        got, expect = basis.active_values(x), active_values_by_gather(basis, x)
        assert np.array_equal(got[0], expect[0]) and np.array_equal(got[1], expect[1])

    @pytest.mark.parametrize("knots", ["equispaced", "chebyshev"])
    def test_active_values_equal_gather(self, basis8, space2, knots):
        basis = basis8 if knots == "equispaced" else build_basis(chebyshev_lobatto(30), space2)
        self.assert_active_values_equal_gather(basis)

    @settings(deadline=None)
    @across_gap_ratios
    def test_active_values_equal_gather_across_gap_ratios(self, log_gaps, log_alpha_h):
        self.assert_active_values_equal_gather(gap_ratio_basis(log_gaps, log_alpha_h))

    @settings(deadline=None)
    @across_gap_ratios
    def test_interpolant_matches_oracle_across_gap_ratios(self, log_gaps, log_alpha_h):
        # Points inside the intervals, and a: at an interior knot the oracle
        # also evaluates the function whose support ends there, which is zero
        # only to within the outer-band tolerance, not to rounding.
        basis = gap_ratio_basis(log_gaps, log_alpha_h)
        n = basis.n
        c = np.random.default_rng(n).standard_normal(n)
        x = np.concatenate([[basis.a], knots_and_inside(basis)[1]])
        got = Interpolant(basis=basis, coefficients=c)(x)
        expect = sum(c[j] * evaluate(basis, j, x) for j in range(n))
        # Each side sums 16 products g_k * C[s, k] * c_s, so each is within
        # 17 eps times the sum M of their absolute values (Higham's gamma_17).
        i, g = basis._locate(x)
        window = np.lib.stride_tricks.sliding_window_view(np.pad(np.abs(c), 1), 4)[i]
        m = np.einsum("pk,ps,psk->p", np.abs(g), window, np.abs(basis.table[i]))
        assert np.all(np.abs(got - expect) <= 2 * 17 * np.finfo(float).eps * m)

    @pytest.mark.parametrize("n", [2, 3])
    def test_smallest_tables(self, space2, n):
        basis = build_basis(np.linspace(-1.0, 1.0, n), space2)
        assert basis.table.shape == (n - 1, 4, 4)
        c = np.arange(1.0, n + 1)
        pp = Interpolant(basis=basis, coefficients=c).pp
        for i in range(n - 1):
            live = [s for s in range(4) if 0 <= i + s - 1 < n]
            for s in set(range(4)) - set(live):
                assert np.array_equal(basis.table[i, s], np.zeros(4))
            for s in live:
                assert np.array_equal(basis.table[i, s], basis.coef[i + s - 1, 3 - s])
            terms = np.array([c[i + s - 1] * basis.coef[i + s - 1, 3 - s] for s in live])
            bound = 8 * np.finfo(float).eps * np.abs(terms).sum(axis=0)
            assert np.all(np.abs(pp[i] - terms.sum(axis=0)) <= bound)

    def test_scalar_and_2d_input(self, basis8):
        interp = fit(basis8, np.sin(np.arange(8.0)))
        x = np.linspace(-1.0, 1.0, 12)
        flat = interp(x)
        scalar = interp(x[5])
        assert type(scalar) is float and scalar == pytest.approx(flat[5], rel=0.0, abs=1e-14)
        assert np.allclose(interp(x.reshape(3, 4)), flat.reshape(3, 4), rtol=0.0, atol=1e-14)
        assert interp(x[:, None]).shape == (12, 1)

    def test_wrong_coefficient_count_rejected(self, basis8):
        with pytest.raises(InvalidInputError, match="expected 8 coefficients"):
            Interpolant(basis=basis8, coefficients=np.zeros(7))


class TestCardinal:
    def test_kronecker_at_knots(self, basis8, lu8):
        for i, x in enumerate(basis8.knots.interior):
            psi = cardinal_values(basis8, lu8, x)
            expect = np.zeros(8)
            expect[i] = 1.0
            assert np.max(np.abs(psi - expect)) <= 1e-9

    def test_matches_dense_inverse_oracle(self, basis8, colloc8, lu8, grid400):
        inv = np.linalg.inv(colloc8.to_dense())
        psi = cardinal_values(basis8, lu8, grid400)  # (m, n)
        for k in (0, 100, 250, 399):
            x = grid400[k]
            direct = inv.T @ np.array([evaluate(basis8, j, x) for j in range(8)])
            assert np.allclose(psi[k], direct, rtol=0.0, atol=1e-11)

    def test_lagrange_form_matches_coefficient_form(self, basis8, lu8, grid400):
        rng = np.random.default_rng(11)
        y = rng.normal(size=8)
        interp = fit(basis8, y)
        psi = cardinal_values(basis8, lu8, grid400)
        lagrange = psi @ y
        assert np.max(np.abs(lagrange - interp(grid400))) <= 1e-9

    def test_outside_interval_rejected(self, basis8, lu8):
        with pytest.raises(DomainError):
            cardinal_values(basis8, lu8, 2.0)

    @settings(deadline=None)
    @across_gap_ratios
    def test_cardinal_conditions_across_gap_ratios(self, log_gaps, log_alpha_h):
        # At the knots the cardinal values are F A^-1 = I + (F - A) A^-1, where
        # F holds every basis value there and A keeps its three diagonals. F - A
        # has one value per row, so the gap to I is at most kappa_inf(A) * delta
        # plus the rounding of the solve, delta being the largest dropped value
        # relative to |A|_inf.
        basis = gap_ratio_basis(log_gaps, log_alpha_h)
        knots = basis.knots.interior
        mat = collocation_matrix(basis)
        dense = mat.to_dense()
        delta = np.abs(basis_matrix(basis, knots).T - dense).max() / mat.norm_inf()
        kappa = mat.norm_inf() * np.abs(np.linalg.inv(dense)).sum(axis=1).max()
        bound = 2 * kappa * (delta + np.finfo(float).eps)
        lu = factorize(mat)
        psi = cardinal_values(basis, lu, knots)
        assert np.all(np.abs(psi - np.eye(basis.n)) <= bound)
        assert np.all(np.abs(lebesgue_function(basis, lu, knots) - 1.0) <= bound)


class TestLebesgue:
    def test_equals_one_at_knots(self, basis8, lu8):
        lam = lebesgue_function(basis8, lu8, basis8.knots.interior)
        assert np.allclose(lam, 1.0, atol=1e-9)

    def test_dominates_max_cardinal(self, basis8, lu8, grid400):
        lam = lebesgue_function(basis8, lu8, grid400)
        psi = cardinal_values(basis8, lu8, grid400)
        assert np.all(lam >= np.abs(psi).max(axis=1) - 1e-14)
        assert np.all(lam >= 0.0)

    def test_single_knot_grid_gives_one(self, basis8, lu8):
        assert lebesgue_constant(basis8, lu8, [basis8.knots.interior[2]]) == \
            pytest.approx(1.0, abs=1e-9)

    def test_at_least_one_with_knot_on_grid(self, basis8, lu8, grid400):
        grid = np.concatenate([grid400, basis8.knots.interior])
        assert lebesgue_constant(basis8, lu8, grid) >= 1.0 - 1e-12

    def test_monotone_under_grid_refinement(self, basis8, lu8):
        coarse = np.linspace(-1, 1, 400)
        fine = np.unique(np.concatenate([coarse, np.linspace(-1, 1, 799)]))
        assert lebesgue_constant(basis8, lu8, coarse) <= \
            lebesgue_constant(basis8, lu8, fine) + 1e-14

    def test_empty_grid_rejected(self, basis8, lu8):
        with pytest.raises(InvalidInputError):
            lebesgue_constant(basis8, lu8, [])

    @pytest.mark.parametrize("x", [np.nan, [0.0, np.nan]])
    def test_nan_outside_domain(self, basis8, lu8, x):
        # NaN compares false both ways, so it must fail the inside test
        interp = fit(basis8, np.ones(8))
        for call in (lambda: interp(x),
                     lambda: cardinal_values(basis8, lu8, x),
                     lambda: lebesgue_function(basis8, lu8, x),
                     lambda: lebesgue_constant(basis8, lu8, x)):
            with pytest.raises(DomainError):
                call()

    def test_more_than_one_dimension_rejected(self, basis8, lu8):
        # cardinal and Lebesgue values take a scalar or a 1-d array; the
        # interpolant itself evaluates any shape
        x = np.zeros((2, 2))
        for call in (lambda: cardinal_values(basis8, lu8, x),
                     lambda: lebesgue_function(basis8, lu8, x),
                     lambda: lebesgue_constant(basis8, lu8, x)):
            with pytest.raises(InvalidInputError, match="1-d"):
                call()
        assert fit(basis8, np.ones(8))(x).shape == (2, 2)

    def test_chebyshev_not_smallest_among_families(self, space2, grid400):
        lams = {}
        for name, nodes in [
            ("equispaced", np.linspace(-1, 1, 8)),
            ("halton", halton(8)),
            ("chebyshev", chebyshev_lobatto(8)),
        ]:
            basis = build_basis(nodes, space2)
            lu = factorize(collocation_matrix(basis))
            lams[name] = lebesgue_constant(basis, lu, grid400)
        assert lams["chebyshev"] >= min(lams["equispaced"], lams["halton"])
