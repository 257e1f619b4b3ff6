import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import epspline.basis as basis_mod
from epspline import (
    BasisConstructionError,
    DomainError,
    ExpSpace,
    InvalidInputError,
    augment_knots,
    build_basis,
)
from epspline.space import segment_basis_eval
from oracle import evaluate, segment_value, support


class TestAugmentKnots:
    def test_uniform_extension(self):
        got = augment_knots([-1.0, 0.0, 1.0])
        assert np.array_equal(got.extended, [-3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0])

    def test_asymmetric_gaps(self):
        got = augment_knots([0.0, 1.0, 3.0])
        assert np.array_equal(got.extended, [-2.0, -1.0, 0.0, 1.0, 3.0, 5.0, 7.0])

    def test_duplicate_rejected(self):
        with pytest.raises(InvalidInputError):
            augment_knots([0.0, 0.0, 1.0])

    def test_unsorted_rejected(self):
        with pytest.raises(InvalidInputError):
            augment_knots([0.0, 2.0, 1.0])

    def test_too_few_rejected(self):
        with pytest.raises(InvalidInputError):
            augment_knots([0.0])

    def test_interior_embedded_in_extended(self):
        got = augment_knots(np.linspace(0, 5, 9))
        assert np.array_equal(got.extended[2:-2], got.interior)
        assert np.all(np.diff(got.extended) > 0)


class TestBuildBasis:
    def test_support_endpoints_vanish(self, basis8):
        for j in range(basis8.n):
            lo, hi = support(basis8, j)
            for d in range(3):
                assert abs(evaluate(basis8, j, lo, d)) < 1e-9
                assert abs(evaluate(basis8, j, hi, d)) < 1e-9

    def test_unit_value_at_center(self, basis8):
        for j in range(basis8.n):
            xj = basis8.knots.interior[j]
            assert evaluate(basis8, j, xj) == pytest.approx(1.0, abs=1e-12)

    def test_dimension_matches_interior_count(self, space2):
        for n in (2, 3, 5, 11):
            basis = build_basis(np.linspace(0, 1, n), space2)
            assert basis.n == n
            assert basis.coef.shape == (n, 4, 4)

    def test_interior_function_is_bell_shaped(self, basis8):
        # dense evaluation oracle: single sign, max near the central knot
        j = 4
        lo, hi = support(basis8, j)
        xs = np.linspace(lo, hi, 400)
        vals = evaluate(basis8, j, xs)
        assert np.all(vals >= -1e-12)
        center = basis8.knots.interior[j]
        width = hi - lo
        assert abs(xs[np.argmax(vals)] - center) < 0.05 * width

    def test_c2_continuity_at_support_knots(self, basis8):
        # one-sided evaluations from the two adjacent segment representations
        for j in range(basis8.n):
            sup = np.linspace(*support(basis8, j), 80)
            for d in range(3):
                scale = max(1.0, np.abs(evaluate(basis8, j, sup, d)).max())
                for m in range(1, 4):
                    left = segment_value(basis8, j, m - 1, 1.0, d)
                    right = segment_value(basis8, j, m, 0.0, d)
                    assert abs(left - right) <= 1e-8 * scale

    def test_locality_at_interior_knots(self, basis8):
        x = basis8.knots.interior
        for j in range(basis8.n):
            for i in range(basis8.n):
                if abs(i - j) >= 2:
                    assert abs(evaluate(basis8, j, x[i])) <= 1e-12

    def test_normalized_system_uniquely_solvable(self, basis8):
        # homogeneous part has a 1-d nullspace; normalization pins it down,
        # so rebuilding must reproduce the same coefficients
        again = build_basis(basis8.knots, basis8.space)
        assert np.allclose(again.coef, basis8.coef, rtol=0.0, atol=0.0)

    def test_accepts_raw_interior(self, space2):
        direct = build_basis(np.linspace(-1, 1, 5), space2)
        via_knots = build_basis(augment_knots(np.linspace(-1, 1, 5)), space2)
        assert np.array_equal(direct.coef, via_knots.coef)

    def test_alpha_interval_hard_limit(self):
        with pytest.raises(DomainError):
            build_basis([0.0, 400.0, 800.0], ExpSpace(2.0))

    def test_alpha_interval_warning(self):
        # alpha * h = 40: the local systems are far beyond the conditioning
        # ceiling, so construction refuses
        with pytest.raises(BasisConstructionError):
            build_basis([0.0, 20.0, 40.0], ExpSpace(2.0))

    def test_nonuniform_knots(self, space2):
        interior = np.array([0.0, 0.1, 0.15, 0.4, 1.0, 1.05, 2.0])
        basis = build_basis(interior, space2)
        for j in range(basis.n):
            assert evaluate(basis, j, interior[j]) == pytest.approx(1.0, abs=1e-9)


class TestEvaluate:
    def test_zero_outside_support(self, basis8):
        lo, hi = support(basis8, 3)
        assert evaluate(basis8, 3, lo - 0.5) == 0.0
        assert evaluate(basis8, 3, hi + 0.5) == 0.0

    def test_two_sided_agreement_at_interior_knot(self, basis8):
        # same point evaluated through both adjacent segment representations
        E = basis8.knots.extended
        for j in range(basis8.n):
            for m in range(1, 4):
                left = segment_value(basis8, j, m - 1, 1.0)
                right = evaluate(basis8, j, E[j + m])
                assert abs(left - right) < 1e-9

    def test_scalar_and_array_agree(self, basis8):
        xs = np.linspace(-1, 1, 17)
        arr = evaluate(basis8, 2, xs)
        scalars = np.array([evaluate(basis8, 2, float(x)) for x in xs])
        # summation order differs between vector lengths; equality up to roundoff
        assert np.allclose(arr, scalars, rtol=0.0, atol=1e-14)


def test_construction_error_names_index(monkeypatch, space2):
    # force a rank-deficient local system by zeroing the assembled matrix
    real_cond = np.linalg.cond

    def fake_cond(a):
        out = np.asarray(real_cond(a))
        if out.ndim == 1 and len(out) >= 3:
            out = out.copy()
            out[2] = 1e15
        return out

    monkeypatch.setattr(basis_mod.np.linalg, "cond", fake_cond)
    with pytest.raises(BasisConstructionError, match="2"):
        build_basis(np.linspace(0, 1, 6), space2)


@pytest.mark.parametrize("alpha_h", [695.0, 699.0, 700.0])
def test_overflowing_local_system_is_construction_error(alpha_h):
    # near the overflow limit the derivative rows overflow or the system loses
    # all rank; either way it is a construction error naming the function,
    # never a LinAlgError from the condition estimate
    with pytest.raises(BasisConstructionError, match="basis function 0 "):
        build_basis(np.arange(11.0), ExpSpace(alpha_h))


def _insert(knots, x):
    return np.insert(knots, np.searchsorted(knots, x), x)


class TestPriorReuse:
    def test_interior_insertion_solves_five_functions(self, monkeypatch, space2):
        points = []

        def counting(z, tau, deriv_order=0):
            points.append(np.broadcast(np.asarray(z), np.asarray(tau)).size)
            return segment_basis_eval(z, tau, deriv_order)

        prior = build_basis(np.linspace(-1.0, 1.0, 50), space2)
        knots = _insert(prior.knots.interior, 0.01)
        monkeypatch.setattr(basis_mod, "segment_basis_eval", counting)
        scratch = build_basis(knots, space2)
        per_function = sum(points) / scratch.n
        points.clear()
        reused = build_basis(knots, space2, prior=prior)
        assert sum(points) <= 5 * per_function
        assert np.array_equal(reused.coef, scratch.coef)
        assert np.array_equal(reused.table, scratch.table)

    def test_prior_in_another_space_is_ignored(self, space2):
        knots = np.linspace(-1.0, 1.0, 12)
        prior = build_basis(knots, ExpSpace(3.0))
        assert np.array_equal(build_basis(knots, space2, prior=prior).coef,
                              build_basis(knots, space2).coef)

    def test_error_names_index_in_full_basis(self, space2):
        # gap 7 at alpha = 2 is beyond the local conditioning ceiling; the
        # prior splits it, so only the functions around the gap are re-solved
        knots = np.concatenate([np.linspace(0.0, 2.0, 11), [9.0, 9.2, 9.4, 9.6]])
        prior = build_basis(_insert(knots, 5.5), space2)
        with pytest.raises(BasisConstructionError) as scratch:
            build_basis(knots, space2)
        with pytest.raises(BasisConstructionError) as reused:
            build_basis(knots, space2, prior=prior)
        assert "basis function 0 " not in str(scratch.value)
        assert str(reused.value) == str(scratch.value)

    @settings(max_examples=60, deadline=None)
    @given(
        gaps=st.lists(st.floats(-6.0, 0.0), min_size=1, max_size=8),
        alpha_h=st.floats(1e-3, 30.0),
        inserts=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12),
    )
    def test_bitwise_equal_to_scratch_build(self, gaps, alpha_h, inserts):
        knots = np.concatenate([[0.0], np.cumsum(10.0 ** np.array(gaps))])
        space = ExpSpace(alpha_h / np.max(np.diff(knots)))
        prior = None
        for u in inserts:
            x = knots[0] + u * (knots[-1] - knots[0])
            if np.isin(x, knots):
                continue
            knots = _insert(knots, x)
            try:
                scratch = build_basis(knots, space)
            except BasisConstructionError:
                with pytest.raises(BasisConstructionError):
                    build_basis(knots, space, prior=prior)
                continue
            reused = build_basis(knots, space, prior=prior)
            assert np.array_equal(reused.coef, scratch.coef)
            assert np.array_equal(reused.table, scratch.table)
            prior = reused
