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
from epspline.interpolate import OUTER_BAND_RTOL
from epspline.nodes import chebyshev_lobatto, halton
from epspline.space import segment_basis_eval


def dense_collocation(basis):
    """Brute-force oracle: evaluate every basis function at every knot.

    The last knot is the right end of ``[a, b]``. ``basis.evaluate`` takes it
    from the support interval to its right, outside ``[a, b]``; the oracle
    takes it from the interval to its left, as the interpolant does.
    """
    n = basis.n
    out = np.column_stack([basis.evaluate(j, basis.knots.interior) for j in range(n)])
    for j in range(max(n - 3, 0), n):
        out[-1, j] = basis.segment_value(j, n - j, 1.0)  # interval ending at the last knot
    return out


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

    @pytest.mark.filterwarnings("ignore:alpha")  # alpha * h may round just past 30
    @settings(deadline=None)
    @given(log_gaps=st.lists(st.floats(-6.0, 0.0), min_size=1, max_size=40),
           log_alpha_h=st.floats(-3.0, np.log10(30.0)))
    def test_matches_oracle_across_gap_ratios(self, log_gaps, log_alpha_h):
        gaps = 10.0 ** np.array(log_gaps)
        space = ExpSpace(10.0 ** log_alpha_h / gaps.max())
        try:
            basis = build_basis(np.concatenate([[0.0], np.cumsum(gaps)]), space)
        except BasisConstructionError:
            basis = None
        assume(basis is not None)
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
        y = np.array([basis8.evaluate(k, x) for x in basis8.knots.interior])
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
            dense += interp.coefficients[j] * basis8.evaluate(j, grid400)
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
            direct = inv.T @ np.array([basis8.evaluate(j, x) for j in range(8)])
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
