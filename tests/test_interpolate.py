import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from epspline import (
    BandedMatrix,
    BasisConstructionError,
    DomainError,
    ExpSpace,
    GBSplineBasis,
    InvalidInputError,
    SingularSystemError,
    build_basis,
    cardinal_values,
    collocation_matrix,
    factorize,
    fit,
    lebesgue_constant,
    lebesgue_function,
)
from epspline.banded import BandedLU
from epspline.interpolate import OUTER_BAND_RTOL, Interpolant, basis_matrix
from epspline.nodes import chebyshev_lobatto, equispaced, halton
from epspline.space import segment_basis_eval
from oracle import (active_values_by_gather, collocation_by_values, evaluate, lebesgue_by_solve,
                    segment_value)
from strategies import across_gap_ratios, gap_ratio_basis


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


# every evaluator of a basis, called as (basis, x); all go through GBSplineBasis._locate
EVALUATORS = {
    "_locate": lambda basis, x: basis._locate(x),
    "active_values": lambda basis, x: basis.active_values(x),
    "Interpolant": lambda basis, x: Interpolant(basis, np.ones(basis.n))(x),
    "cardinal_values": cardinal_values,
    "lebesgue_function": lebesgue_function,
}


def assert_domain_is_a_to_b(basis, evaluate_at):
    """``evaluate_at`` takes a and b exactly, and raises ``DomainError`` just outside, far
    outside (5.0 on [-1, 1]) and at NaN, for a scalar and inside an array."""
    a, b = basis.a, basis.b
    for inside in (a, b, np.array([a, b])):
        evaluate_at(basis, inside)
    for x in (np.nextafter(b, np.inf), np.nextafter(a, -np.inf), a + 3.0 * (b - a), np.nan):
        for points in (x, np.array([a, x])):
            with pytest.raises(DomainError):
                evaluate_at(basis, points)


@pytest.mark.parametrize("name", EVALUATORS)
def test_domain_is_a_to_b(basis8, name):
    assert_domain_is_a_to_b(basis8, EVALUATORS[name])


@settings(deadline=None)
@across_gap_ratios
def test_domain_is_a_to_b_across_gap_ratios(log_gaps, log_alpha_h):
    basis = gap_ratio_basis(log_gaps, log_alpha_h)
    for evaluate_at in EVALUATORS.values():
        assert_domain_is_a_to_b(basis, evaluate_at)


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

    @pytest.mark.parametrize("row", [0, 3, 5, 7])
    def test_outer_value_names_row_and_function(self, basis8, row):
        # coef[j, 0, 0] is function j's value at the left end of its support,
        # the knot of row j - 2; coef[n - 3, 3, 0] scales cosh(z) at the right
        # end of its last support interval, the last knot
        n, coef = basis8.n, basis8.coef.copy()
        function = row + 2 if row < n - 1 else n - 3
        coef[(row + 2, 0, 0) if row < n - 1 else (n - 3, 3, 0)] += 1e-6
        bad = GBSplineBasis(basis8.knots, basis8.space, coef=coef)
        with pytest.raises(BasisConstructionError,
                           match=f"collocation row {row}: basis function {function} has value"):
            collocation_matrix(bad)

    @settings(deadline=None)
    @across_gap_ratios
    @example(log_gaps=[-1.0], log_alpha_h=0.0)
    @example(log_gaps=[-2.0, 0.0], log_alpha_h=1.0)
    def test_diagonals_equal_evaluated_values(self, log_gaps, log_alpha_h):
        # rows read from the basis table against the basis evaluated at every knot
        basis = gap_ratio_basis(log_gaps, log_alpha_h)
        mat = collocation_matrix(basis)
        for got, want in zip((mat.lower, mat.diag, mat.upper), collocation_by_values(basis)):
            assert np.array_equal(got, want)

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

    @settings(deadline=None)
    @across_gap_ratios
    def test_forward_pivots_positive_across_gap_ratios(self, log_gaps, log_alpha_h):
        # Elimination without row exchanges is stable on a totally positive
        # matrix, and positive forward pivots are the cheap check of that
        # (ROADMAP item 4). The entries are not checked for sign: beside a
        # large alpha * h, a neighbour value that is tiny in exact arithmetic
        # can come out about -1e-13 from cancelling segment terms.
        mat = collocation_matrix(gap_ratio_basis(log_gaps, log_alpha_h))
        pivots = [mat.diag[0]]
        for i in range(1, mat.n):
            pivots.append(mat.diag[i] - mat.lower[i - 1] * mat.upper[i - 1] / pivots[-1])
        assert min(pivots) > 0.0, pivots


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

    @settings(deadline=None)
    @across_gap_ratios
    def test_banded_equals_dense_solve_across_gap_ratios(self, log_gaps, log_alpha_h):
        # Elimination without row exchanges solves (A + E) c = y with |E| <=
        # 3n eps |L| |U| (Higham, Accuracy and Stability, Thm 9.4), and |L| |U|
        # = |A| when A is totally positive; forming A c adds 3 eps |A| |c|. So
        # k = 6 covers 3n + 3 for every n; the worst of 20 000 random draws was
        # 0.9 n eps |A| |c|. The dense solve, and data in the space, agree with
        # the fit within 4 kappa_inf eps (worst 0.5 and 1.0).
        basis = gap_ratio_basis(log_gaps, log_alpha_h)
        mat = collocation_matrix(basis)
        dense, n, eps = mat.to_dense(), basis.n, np.finfo(float).eps
        y = np.sin(3 * basis.knots.interior)
        c = fit(basis, y).coefficients
        assert np.abs(dense @ c - y).max() <= 6 * n * eps * mat.norm_inf() * np.abs(c).max()
        assert np.allclose(c, np.linalg.solve(dense, y),
                           rtol=0.0, atol=4 * kappa_inf(mat) * eps * np.abs(c).max())
        cstar = np.random.default_rng(n).normal(size=n)
        c = fit(basis, dense @ cstar).coefficients
        assert np.abs(c - cstar).max() <= 4 * kappa_inf(mat) * eps * np.abs(cstar).max()

    @settings(deadline=None)
    @across_gap_ratios
    def test_values_reproduce_space_data_across_gap_ratios(self, log_gaps, log_alpha_h):
        # Data y = A c of a spline s in the space: the fit's coefficients c'
        # are within 4 kappa_inf eps |c|max of c (above), so at x its values
        # are within that times sum_j |B_j(x)| of s(x), plus the rounding of
        # the two 16-term evaluations, each within 17 eps times its sum M of
        # absolute products (Higham's gamma_17). The stated bound is eps (4
        # kappa_inf |c|max sum_j |B_j(x)| + 17 (M(c) + M(c'))), kappa_inf
        # from np.linalg.cond; the worst of 20 000 random draws was 0.1 of it.
        basis = gap_ratio_basis(log_gaps, log_alpha_h)
        dense, eps = collocation_matrix(basis).to_dense(), np.finfo(float).eps
        c = np.random.default_rng(basis.n).normal(size=basis.n)
        x = knots_and_inside(basis)[1]
        interp, space = fit(basis, dense @ c), Interpolant(basis, c)
        i, g = basis._locate(x)

        def rounding(coefficients):
            window = np.lib.stride_tricks.sliding_window_view(
                np.pad(np.abs(coefficients), 1), 4)[i]
            return np.einsum("pk,ps,psk->p", np.abs(g), window, np.abs(basis.table[i]))

        beta = np.abs(basis.active_values(x)[0]).sum(axis=1)
        bound = eps * (4 * np.linalg.cond(dense, np.inf) * np.abs(c).max() * beta
                       + 17 * (rounding(c) + rounding(interp.coefficients)))
        assert np.all(np.abs(interp(x) - space(x)) <= bound)

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
    def test_kronecker_at_knots(self, basis8):
        for i, x in enumerate(basis8.knots.interior):
            psi = cardinal_values(basis8, x)
            expect = np.zeros(8)
            expect[i] = 1.0
            assert np.max(np.abs(psi - expect)) <= 1e-9

    def test_matches_dense_inverse_oracle(self, basis8, colloc8, grid400):
        inv = np.linalg.inv(colloc8.to_dense())
        psi = cardinal_values(basis8, grid400)  # (m, n)
        for k in (0, 100, 250, 399):
            x = grid400[k]
            direct = inv.T @ np.array([evaluate(basis8, j, x) for j in range(8)])
            assert np.allclose(psi[k], direct, rtol=0.0, atol=1e-11)

    @settings(deadline=None)
    @across_gap_ratios
    def test_matches_dense_inverse_oracle_across_gap_ratios(self, log_gaps, log_alpha_h):
        # cardinal_values shares its forward pivots with the Lebesgue tables, so
        # it is checked against an inverse that eliminates on its own; both are
        # within a few kappa_inf eps of each point's largest cardinal value, the
        # stated multiple is 8, the worst of 20 000 random draws 1.9
        basis = gap_ratio_basis(log_gaps, log_alpha_h)
        mat = collocation_matrix(basis)
        x = np.concatenate(knots_and_inside(basis))
        direct = basis_matrix(basis, x).T @ np.linalg.inv(mat.to_dense())
        bound = 8 * np.finfo(float).eps * kappa_inf(mat) * np.abs(direct).max(axis=1)
        assert np.all(np.abs(cardinal_values(basis, x) - direct) <= bound[:, None])

    def test_empty_points(self, basis8):
        assert cardinal_values(basis8, np.array([])).shape == (0, 8)

    def test_lagrange_form_matches_coefficient_form(self, basis8, grid400):
        rng = np.random.default_rng(11)
        y = rng.normal(size=8)
        interp = fit(basis8, y)
        psi = cardinal_values(basis8, grid400)
        lagrange = psi @ y
        assert np.max(np.abs(lagrange - interp(grid400))) <= 1e-9

    def test_outside_interval_rejected(self, basis8):
        with pytest.raises(DomainError):
            cardinal_values(basis8, 2.0)

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
        psi = cardinal_values(basis, knots)
        assert np.all(np.abs(psi - np.eye(basis.n)) <= bound)
        assert np.all(np.abs(lebesgue_function(basis, knots) - 1.0) <= bound)


def kappa_inf(matrix):
    return matrix.norm_inf() * np.abs(np.linalg.inv(matrix.to_dense())).sum(axis=1).max()


class TestLebesgue:
    @settings(deadline=None)
    @across_gap_ratios
    def test_matches_solve_across_gap_ratios(self, log_gaps, log_alpha_h):
        basis = gap_ratio_basis(log_gaps, log_alpha_h)
        mat = collocation_matrix(basis)
        x = np.concatenate(knots_and_inside(basis))
        expect = lebesgue_by_solve(basis, x)
        got = lebesgue_function(basis, x)
        # both forms start from the same basis values and differ only in how
        # they solve with Aᵀ, each within a few eps * kappa_inf relative; the
        # stated multiple is 4, the worst of 10 000 random draws (n up to 400) 1.7
        assert np.all(np.abs(got - expect) <= 4 * np.finfo(float).eps * kappa_inf(mat) * expect)

    @settings(deadline=None)
    @given(log_gaps=st.lists(st.floats(-6.0, 0.0), min_size=1, max_size=40),
           log_alpha_h=st.floats(-3.0, np.log10(30.0)),
           where=st.lists(st.floats(0.0, 1.0), max_size=20), knot=st.integers(0))
    def test_at_least_one_on_a_grid_with_a_knot(self, log_gaps, log_alpha_h, where, knot):
        # Λ(x_j) = 1 within the bound of test_cardinal_conditions_across_gap_ratios,
        # so on any grid holding a knot the Lebesgue constant is at least 1 less it
        basis = gap_ratio_basis(log_gaps, log_alpha_h)
        knots = basis.knots.interior
        mat = collocation_matrix(basis)
        delta = np.abs(basis_matrix(basis, knots).T - mat.to_dense()).max() / mat.norm_inf()
        bound = 2 * kappa_inf(mat) * (delta + np.finfo(float).eps)
        grid = np.append(basis.a + (basis.b - basis.a) * np.array(where), knots[knot % basis.n])
        assert lebesgue_constant(basis, grid) >= 1.0 - bound

    @settings(deadline=None)
    @across_gap_ratios
    def test_input_errors_across_gap_ratios(self, log_gaps, log_alpha_h):
        # points outside [a, b] are covered by test_domain_is_a_to_b_across_gap_ratios
        basis = gap_ratio_basis(log_gaps, log_alpha_h)
        with pytest.raises(InvalidInputError, match="1-d"):
            lebesgue_function(basis, np.full((2, 2), basis.a))
        with pytest.raises(InvalidInputError, match="empty"):
            lebesgue_constant(basis, [])
        assert lebesgue_function(basis, []).shape == (0,)

    def test_no_solve_and_no_basis_matrix(self, basis8, grid400, monkeypatch):
        from epspline import check_error_bound

        interp = fit(basis8, np.sin(3.0 * basis8.knots.interior))
        expect = lebesgue_function(basis8, grid400)

        def refuse(*args, **kwargs):
            raise AssertionError("the Lebesgue function used the solve path")

        # the tables are read from a factorization that nothing solves with
        monkeypatch.setattr(BandedLU, "solve", refuse)
        monkeypatch.setattr("epspline.interpolate.basis_matrix", refuse)
        assert np.array_equal(lebesgue_function(basis8, grid400), expect)
        assert lebesgue_constant(basis8, grid400) == expect.max()
        assert check_error_bound(lambda x: np.sin(3.0 * x), interp, grid400).holds

    def test_negative_pivot_without_row_exchanges_rejected(self):
        # [[1, 2], [2, 1]] is regular, but not totally positive: eliminating
        # without row exchanges meets the pivot 1 - 2 * 2 / 1 = -3 in row 1, and
        # the factorization that the tables read runs that elimination
        mat = BandedMatrix([2.0], [1.0, 1.0], [2.0])
        assert np.array_equal(mat.to_dense(), [[1.0, 2.0], [2.0, 1.0]])
        for run in (factorize, lambda m: factorize(m).lebesgue_tables()):
            with pytest.raises(SingularSystemError, match="row 1: forward pivot -3"):
                run(mat)

    def test_one_pivot_floor_for_fit_cardinals_and_tables(self, monkeypatch):
        # λ-greedy's second node set on 40 equispaced candidates: its smallest
        # forward pivot, 0.822, is below a floor of 0.3 |A| = 0.89, and every
        # evaluator reads that one floor
        monkeypatch.setattr("epspline.banded.PIVOT_RTOL", 0.3)
        basis = build_basis(equispaced(40)[[0, 1, 20, 38, 39]], ExpSpace(2.0))
        messages = set()
        for run in (lambda: fit(basis, np.ones(basis.n)),
                    lambda: cardinal_values(basis, 0.5),
                    lambda: lebesgue_function(basis, [0.5])):
            with pytest.raises(SingularSystemError, match="row 1: forward pivot 0.822") as err:
                run()
            messages.add(str(err.value))
        assert len(messages) == 1

    def test_equals_one_at_knots(self, basis8):
        lam = lebesgue_function(basis8, basis8.knots.interior)
        assert np.allclose(lam, 1.0, atol=1e-9)

    def test_dominates_max_cardinal(self, basis8, grid400):
        lam = lebesgue_function(basis8, grid400)
        psi = cardinal_values(basis8, grid400)
        assert np.all(lam >= np.abs(psi).max(axis=1) - 1e-14)
        assert np.all(lam >= 0.0)

    def test_single_knot_grid_gives_one(self, basis8):
        assert lebesgue_constant(basis8, [basis8.knots.interior[2]]) == \
            pytest.approx(1.0, abs=1e-9)

    def test_at_least_one_with_knot_on_grid(self, basis8, grid400):
        grid = np.concatenate([grid400, basis8.knots.interior])
        assert lebesgue_constant(basis8, grid) >= 1.0 - 1e-12

    def test_monotone_under_grid_refinement(self, basis8):
        coarse = np.linspace(-1, 1, 400)
        fine = np.unique(np.concatenate([coarse, np.linspace(-1, 1, 799)]))
        assert lebesgue_constant(basis8, coarse) <= \
            lebesgue_constant(basis8, fine) + 1e-14

    def test_empty_grid_rejected(self, basis8):
        with pytest.raises(InvalidInputError):
            lebesgue_constant(basis8, [])

    @pytest.mark.parametrize("x", [np.nan, [0.0, np.nan]])
    def test_nan_outside_domain(self, basis8, x):
        # NaN compares false both ways, so it must fail the inside test
        interp = fit(basis8, np.ones(8))
        for call in (lambda: interp(x),
                     lambda: cardinal_values(basis8, x),
                     lambda: lebesgue_function(basis8, x),
                     lambda: lebesgue_constant(basis8, x)):
            with pytest.raises(DomainError):
                call()

    def test_more_than_one_dimension_rejected(self, basis8):
        # cardinal and Lebesgue values take a scalar or a 1-d array; the
        # interpolant itself evaluates any shape
        x = np.zeros((2, 2))
        for call in (lambda: cardinal_values(basis8, x),
                     lambda: lebesgue_function(basis8, x),
                     lambda: lebesgue_constant(basis8, x)):
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
            lams[name] = lebesgue_constant(basis, grid400)
        assert lams["chebyshev"] >= min(lams["equispaced"], lams["halton"])


def mirrored(family, n):
    """The positive points of ``family(n)`` and their exact negatives: symmetric bit for bit."""
    x = family(n)
    half = x[x > 0.0]
    return np.concatenate([-half[::-1], half])


def rounding_spread(basis, x, weights):
    """``Σ_s w[p, s] Σ_k |T[i, s, k]| (|g_k| + |∂g_k/∂τ|)`` at each point ``p``.

    ``T`` is the point's ``basis.table`` block, ``g`` its segment functions and
    ``w = weights(i)`` a nonnegative weight per live function: the scale of
    the rounding of a sum over the basis values, which cancel near the ends of
    their supports, and of their move under a rounded τ.
    """
    i, g = basis._locate(x)
    E = basis.knots.extended
    h = E[i + 3] - E[i + 2]
    g_tau = segment_basis_eval(basis.space.alpha * h, (x - E[i + 2]) / h, 1)
    return np.einsum("ps,psk,pk->p", weights(i), np.abs(basis.table[i]), np.abs(g) + np.abs(g_tau))


class TestMirrorSymmetry:
    """On mirrored knots Λ is even and the interpolant of an odd function is odd.

    Both sides of each check are one exact value computed twice, on mirrored
    tables and basis values, so they differ only by two rounding errors:

    - the collocation solve or the Lebesgue tables, a few eps·κ∞ relative
      (see ``test_matches_solve_across_gap_ratios``);
    - each basis value, a 4-term sum ``Σ_k T[s, k] g_k``; near the ends of its
      support the terms cancel, so its rounding scales with ``Σ_k |T[s, k]|
      |g_k|``, not with the value;
    - the local coordinate: for points mirrored exactly, ``τ = (x - E_i) / h``
      and ``1 - τ = (E_{i+1} - x) / h`` are each one subtraction and one
      division of exact floats, so τ (and α·h·τ inside ``g``) carry a few eps,
      not the eps·|x|/h of a grid rounded apart on each side; that moves
      ``g`` by a few eps·|∂g/∂τ|.

    ``rounding_spread`` weighs the last two by how they reach the result. The
    stated multiple is 32; over these families, n in 8 .. 300 and α from 0.5
    to 20, the worst was 20 for Λ and 12 for the interpolant.
    """

    CASES = pytest.mark.parametrize("family, n", [
        (family, n) for family in (equispaced, chebyshev_lobatto, halton)
        for n in (8, 16, 40, 300)])

    @staticmethod
    def setup(family, n, alpha):
        basis = build_basis(mirrored(family, n), ExpSpace(alpha))
        x = np.concatenate(knots_and_inside(basis))
        return basis, x[x >= 0.0], kappa_inf(collocation_matrix(basis))

    @pytest.mark.parametrize("alpha", [2.0, 20.0])
    @CASES
    def test_lebesgue_function_is_even(self, family, n, alpha):
        basis, x, kappa = self.setup(family, n, alpha)
        lam = lebesgue_function(basis, x)
        tables = np.abs(factorize(collocation_matrix(basis)).lebesgue_tables())
        spread = sum(rounding_spread(basis, p, lambda i: tables[i].sum(axis=1)) for p in (x, -x))
        gap = np.abs(lebesgue_function(basis, -x) - lam)
        assert np.all(gap <= 32 * np.finfo(float).eps * (kappa * lam + spread))

    @pytest.mark.parametrize("alpha", [2.0, 20.0])
    @CASES
    def test_interpolant_of_odd_function_is_odd(self, family, n, alpha):
        basis, x, kappa = self.setup(family, n, alpha)
        y = np.sin(3.0 * basis.knots.interior)
        interp = fit(basis, y)
        window = np.lib.stride_tricks.sliding_window_view(
            np.pad(np.abs(interp.coefficients), 1), 4)
        spread = sum(rounding_spread(basis, p, lambda i: window[i]) for p in (x, -x))
        bound = kappa * lebesgue_function(basis, x) * np.abs(y).max() + spread
        assert np.all(np.abs(interp(x) + interp(-x)) <= 32 * np.finfo(float).eps * bound)
