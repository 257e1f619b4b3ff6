from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import epspline.basis as basis_mod
from epspline import (
    BasisConstructionError,
    DomainError,
    ExpSpace,
    GBSplineBasis,
    InvalidInputError,
    SplineError,
    build_basis,
)
from epspline.basis import CERTIFIED_BLOCK, LOCAL_SYSTEM_COND_LIMIT, _inserted
from epspline.space import EXP_ARG_LIMIT, segment_basis_eval
from oracle import (coefficients, evaluate, local_system, padded_knots, segment_value, support,
                    table_by_scatter)
from strategies import across_gap_ratios, gap_ratio_basis, gap_ratio_knots, gap_ratios


class TestAugmentKnots:
    """``build_basis`` pads the interior knots with their first and last gap
    mirrored twice beyond each end, and rejects knots it cannot pad."""

    @staticmethod
    def assert_outer_supports(knots, left, right, space):
        # the supports of the end functions reach the mirrored knots, where they vanish
        basis = build_basis(knots, space)
        assert support(basis, 0) == left and support(basis, basis.n - 1) == right
        for j, ends in ((0, left), (basis.n - 1, right)):
            for x in ends:
                for d in range(3):
                    assert abs(evaluate(basis, j, x, d)) < 1e-9
        # with the mirrored knots made interior, the end functions have the same
        # supports, so the same local systems and coefficients: inside [a, b] in
        # the tables, and beyond it in the oracle's local solves
        gl, gr = knots[1] - knots[0], knots[-1] - knots[-2]
        wide = build_basis([knots[0] - 2 * gl, knots[0] - gl, *knots,
                            knots[-1] + gr, knots[-1] + 2 * gr], space)
        n = basis.n
        # function 0 is slot 1 of interval 0 and slot 0 of interval 1, function n - 1
        # slot 3 of interval n - 3 and slot 2 of interval n - 2
        assert np.array_equal(basis.table[:, [1, 0], [0, 1]], wide.table[:, [1, 0], [2, 3]])
        assert np.array_equal(basis.table[:, [3, 2], [-2, -1]], wide.table[:, [3, 2], [-4, -3]])
        assert np.array_equal(coefficients(basis)[[0, n - 1]], coefficients(wide)[[2, n + 1]])

    def test_uniform_extension(self, space2):
        self.assert_outer_supports([-1.0, 0.0, 1.0], (-3.0, 1.0), (-1.0, 3.0), space2)

    def test_asymmetric_gaps(self, space2):
        self.assert_outer_supports([0.0, 1.0, 3.0], (-2.0, 3.0), (0.0, 7.0), space2)

    def test_duplicate_rejected(self, space2):
        with pytest.raises(InvalidInputError, match="interior knots must be sorted"):
            build_basis([0.0, 0.0, 1.0], space2)

    def test_unsorted_rejected(self, space2):
        with pytest.raises(InvalidInputError, match="interior knots must be sorted"):
            build_basis([0.0, 2.0, 1.0], space2)

    def test_too_few_rejected(self, space2):
        with pytest.raises(InvalidInputError, match="at least 2 interior knots"):
            build_basis([0.0], space2)

    def test_interior_embedded_in_extended(self, space2):
        knots = np.linspace(0, 5, 9)
        basis = build_basis(knots, space2)
        assert np.array_equal(basis.knots, knots)
        assert [support(basis, j) for j in range(2, 7)] == \
            [(knots[j - 2], knots[j + 2]) for j in range(2, 7)]

    @pytest.mark.parametrize("knots", [[0.0, 1e308], [-1e308, -0.9e308, 0.9e308, 1e308]])
    def test_overflowing_extension_rejected(self, knots):
        # a mirrored knot beyond the largest double, or a span past it
        with pytest.raises(DomainError, match=r"knot span \[.*\]: its extension"):
            build_basis(knots, ExpSpace(1e-300))

    def test_overflowing_extension_named_by_build_basis(self):
        # not a segment argument past the overflow limit, reached through inf knots
        with pytest.raises(DomainError, match="knot span"):
            build_basis([-1e308, 0.0, 1e308], ExpSpace(1e-300))


class TestBuildBasis:
    def test_support_endpoints_vanish(self, basis8):
        for j in range(basis8.n):
            lo, hi = support(basis8, j)
            for d in range(3):
                assert abs(evaluate(basis8, j, lo, d)) < 1e-9
                assert abs(evaluate(basis8, j, hi, d)) < 1e-9

    def test_unit_value_at_center(self, basis8):
        for j in range(basis8.n):
            xj = basis8.knots[j]
            assert evaluate(basis8, j, xj) == pytest.approx(1.0, abs=1e-12)

    def test_dimension_matches_interior_count(self, space2):
        for n in (2, 3, 5, 11):
            basis = build_basis(np.linspace(0, 1, n), space2)
            assert basis.n == n
            assert basis.table.shape == (4, 4, n - 1)

    @pytest.mark.parametrize("shape", [(7, 4, 4), (4, 4, 8), (4, 4, 6), (4, 4), ()])
    def test_table_of_wrong_shape_rejected(self, basis8, shape):
        # (7, 4, 4) is the interval-first layout of the same 7 intervals
        with pytest.raises(InvalidInputError, match=r"table shape .* != \(4, 4, 7\)"):
            GBSplineBasis(basis8.knots, basis8.space, np.zeros(shape))

    def test_interior_function_is_bell_shaped(self, basis8):
        # dense evaluation oracle: single sign, max near the central knot
        j = 4
        lo, hi = support(basis8, j)
        xs = np.linspace(lo, hi, 400)
        vals = evaluate(basis8, j, xs)
        assert np.all(vals >= -1e-12)
        center = basis8.knots[j]
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
        x = basis8.knots
        for j in range(basis8.n):
            for i in range(basis8.n):
                if abs(i - j) >= 2:
                    assert abs(evaluate(basis8, j, x[i])) <= 1e-12

    def test_normalized_system_uniquely_solvable(self, basis8):
        # homogeneous part has a 1-d nullspace; normalization pins it down,
        # so rebuilding must reproduce the same coefficients
        again = build_basis(basis8.knots, basis8.space)
        assert np.allclose(again.table, basis8.table, rtol=0.0, atol=0.0)

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
        E = padded_knots(basis8)
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


def _uncertified(a):
    """A Cholesky that fails every block: ``build_basis`` then measures each system by SVD."""
    raise np.linalg.LinAlgError("not positive definite")


def test_construction_error_names_index(monkeypatch, space2):
    # force a rank-deficient local system by faking its SVD condition, which
    # build_basis computes only for the blocks its Cholesky certificate fails
    real_cond = np.linalg.cond

    def fake_cond(a):
        out = np.asarray(real_cond(a))
        if out.ndim == 1 and len(out) >= 3:
            out = out.copy()
            out[2] = 1e15
        return out

    monkeypatch.setattr(basis_mod.np.linalg, "cond", fake_cond)
    monkeypatch.setattr(basis_mod.np.linalg, "cholesky", _uncertified)
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
    """``basis._inserted(prior, q, knot)``, the greedies' insertion of one knot at index
    ``q`` into the prior basis, is bitwise equal to ``build_basis`` on the new knots."""

    @staticmethod
    def assert_same_basis(got, want):
        assert np.array_equal(got.knots.view(np.uint64), want.knots.view(np.uint64))
        assert np.array_equal(got.table.view(np.uint64), want.table.view(np.uint64))
        assert got.table.flags.c_contiguous

    def test_interior_insertion_solves_five_functions(self, monkeypatch, space2):
        points = []

        def counting(z, tau):
            points.append(np.broadcast(np.asarray(z), np.asarray(tau)).size)
            return segment_basis_eval(z, tau)

        prior = build_basis(np.linspace(-1.0, 1.0, 50), space2)
        q = int(np.searchsorted(prior.knots, 0.01))
        monkeypatch.setattr(basis_mod, "segment_basis_eval", counting)
        scratch = build_basis(_insert(prior.knots, 0.01), space2)
        per_function = sum(points) / scratch.n
        points.clear()
        spliced = _inserted(prior, q, 0.01)
        assert sum(points) <= 5 * per_function
        self.assert_same_basis(spliced, scratch)

    @settings(deadline=None)
    @across_gap_ratios
    def test_every_position_equals_a_fresh_build(self, log_gaps, log_alpha_h):
        # every q from 2 to n - 3, beside both ends included; a knot set less one
        # that does not build is skipped
        basis = gap_ratio_basis(log_gaps, log_alpha_h)
        assume(basis.n >= 5)
        for q in range(2, basis.n - 2):
            try:
                prior = build_basis(np.delete(basis.knots, q), basis.space)
            except BasisConstructionError:
                continue
            self.assert_same_basis(_inserted(prior, q, basis.knots[q]), basis)

    def test_error_names_index_in_full_basis(self, space2):
        # gap 7 at alpha = 2 is beyond the local conditioning ceiling, so no basis
        # holds it: the prior's table is never read where the insertion solves.
        # Inserting 1.9 solves functions 8 .. 12; the third, 10, fails
        knots = np.concatenate([np.linspace(0.0, 2.0, 11), [9.0, 9.2, 9.4, 9.6]])
        prior = GBSplineBasis(knots, space2, np.zeros((4, 4, len(knots) - 1)))
        with pytest.raises(BasisConstructionError) as scratch:
            build_basis(_insert(knots, 1.9), space2)
        with pytest.raises(BasisConstructionError) as spliced:
            _inserted(prior, 10, 1.9)
        assert "basis function 10 " in str(scratch.value)
        assert str(spliced.value) == str(scratch.value)

    @settings(max_examples=60, deadline=None)
    @given(
        gaps=st.lists(st.floats(-6.0, 0.0), min_size=1, max_size=8),
        alpha_h=st.floats(1e-3, 30.0),
        inserts=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12),
    )
    # the right extension knot 1 + 1.1e-16 rounds onto 1: a zero-length interval
    @example(gaps=[0.0], alpha_h=1.0, inserts=[0.9999999999999999])
    # a knot one ulp from the last inserted one
    @example(gaps=[0.0] * 4, alpha_h=1.0, inserts=[0.375, 0.37500000000000006])
    def test_bitwise_equal_to_scratch_build(self, gaps, alpha_h, inserts):
        # insertions in sequence, each spliced into the last basis; the first, one
        # after a failed build and one beside an end (never a greedy's) build from scratch
        knots = np.concatenate([[0.0], np.cumsum(10.0 ** np.array(gaps))])
        space = ExpSpace(alpha_h / np.max(np.diff(knots)))
        prior = None
        for u in inserts:
            x = knots[0] + u * (knots[-1] - knots[0])
            if np.isin(x, knots):
                continue
            q = int(np.searchsorted(knots, x))
            knots = np.insert(knots, q, x)
            splice = prior is not None and 2 <= q <= len(knots) - 3
            try:
                scratch = build_basis(knots, space)
            except BasisConstructionError:
                if splice:
                    with pytest.raises(BasisConstructionError):
                        _inserted(prior, q, x)
                prior = None
                continue
            prior = _inserted(prior, q, x) if splice else scratch
            self.assert_same_basis(prior, scratch)


class TestLocalSystems:
    """``build_basis`` assembles all local systems at once, by blocks; its table
    holds the solves of ``oracle.local_system`` (``oracle.coefficients``), laid
    out by ``oracle.table_by_scatter``, bit for bit."""

    @staticmethod
    def assert_table_holds_local_solves(basis):
        want = table_by_scatter(basis)
        assert basis.table.flags.c_contiguous
        assert np.array_equal(basis.table.view(np.uint64), want.view(np.uint64))

    @settings(deadline=None)
    @across_gap_ratios
    def test_coef_is_the_local_solve_across_gap_ratios(self, log_gaps, log_alpha_h):
        basis = gap_ratio_basis(log_gaps, log_alpha_h)
        self.assert_table_holds_local_solves(basis)
        # spliced: the knot at q inserted into the basis on the others, so the
        # functions around it are solved
        for q in {2, basis.n // 2, basis.n - 3} if basis.n > 4 else ():
            try:
                prior = build_basis(np.delete(basis.knots, q), basis.space)
            except BasisConstructionError:
                continue
            self.assert_table_holds_local_solves(_inserted(prior, q, basis.knots[q]))

    def test_rank_deficient_message_at_alpha_h_13(self):
        # 11 uniform knots build at alpha * h = 12 and not at 13, where the
        # error names the first function past the ceiling and its condition
        knots = np.linspace(0.0, 1.0, 11)
        build_basis(knots, ExpSpace(120.0))
        space = ExpSpace(130.0)
        conds = [np.linalg.cond(local_system(knots, space, j)[0]) for j in range(11)]
        first = next(j for j, c in enumerate(conds) if not c <= LOCAL_SYSTEM_COND_LIMIT)
        with pytest.raises(BasisConstructionError) as err:
            build_basis(knots, space)
        assert str(err.value) == (f"local system for basis function {first} is numerically "
                                  f"rank-deficient (condition estimate {conds[first]:.3g})")


def _hadamard_system(kappa, rng):
    """A row-equilibrated 16x16 system with κ₂ = ``kappa``: ``H diag(σ)`` for a ±1 Hadamard
    matrix ``H``, σ geometric from 1 down to 1 / kappa, with rows, columns and signs shuffled.
    ``H / 4`` is orthogonal, so the singular values are 4σ; every row peaks at exactly 1."""
    h = np.ones((1, 1))
    while len(h) < 16:
        h = np.block([[h, h], [h, -h]])
    a = h * np.geomspace(1.0, 1.0 / kappa, 16)
    a = a[rng.permutation(16)][:, rng.permutation(16)] * rng.choice([-1.0, 1.0], 16)[:, None]
    assert np.all(np.abs(a).max(axis=1) == 1.0)
    return a


class TestConditionCertificate:
    """``build_basis`` clears a block of local systems by one Cholesky of ``AᵀA - μI``
    (``basis._certified``) and computes the SVD condition only for a block it fails."""

    @pytest.mark.parametrize("kappa", [1e3, 1e5])
    def test_clears_known_condition(self, kappa):
        rng = np.random.default_rng(int(np.log10(kappa)))
        a = np.stack([_hadamard_system(kappa, rng) for _ in range(5)])
        assert np.allclose(np.linalg.cond(a), kappa, rtol=1e-9)
        assert basis_mod._certified(a)

    @pytest.mark.parametrize("kappa", [1e8, 1e13])
    def test_does_not_clear_known_condition(self, kappa):
        rng = np.random.default_rng(int(np.log10(kappa)))
        a = _hadamard_system(kappa, rng)
        assert np.allclose(np.linalg.cond(a), kappa, rtol=1e-3)
        assert not basis_mod._certified(a[None])
        # one such system fails its whole block
        well = np.stack([_hadamard_system(10.0, rng) for _ in range(7)])
        assert basis_mod._certified(well)
        assert not basis_mod._certified(np.concatenate([well, a[None]]))

    def test_cleared_systems_are_within_bound(self):
        # random row-equilibrated systems with column scales over 14 decades: each
        # system the certificate clears has an SVD condition below its bound 1.1e6
        rng = np.random.default_rng(7)
        cleared, worst = 0, 0.0
        for spread in np.linspace(0.0, 14.0, 400):
            a = rng.standard_normal((16, 16)) * np.logspace(0.0, -spread, 16)
            a /= np.abs(a).max(axis=1, keepdims=True)
            if basis_mod._certified(a[None]):
                cleared += 1
                worst = max(worst, np.linalg.cond(a))
        assert 0 < cleared < 400
        assert worst < 1.1e6

    def test_svd_only_for_uncertified_blocks(self, monkeypatch):
        calls, real_cond = [], np.linalg.cond

        def counting_cond(a):
            calls.append(len(a))
            return real_cond(a)

        monkeypatch.setattr(basis_mod.np.linalg, "cond", counting_cond)
        # well conditioned: 1 000 Chebyshev knots at alpha = 2, eight blocks, no SVD
        build_basis(np.cos(np.linspace(np.pi, 0.0, 1000)), ExpSpace(2.0))
        assert calls == []
        # the alpha * h = 13 build of test_rank_deficient_message_at_alpha_h_13: one block, one SVD
        with pytest.raises(BasisConstructionError):
            build_basis(np.linspace(0.0, 1.0, 11), ExpSpace(130.0))
        assert calls == [11]
        # a gap of 7 at alpha = 2 past the second block: only the third block is measured
        calls.clear()
        knots = np.concatenate([np.linspace(0.0, 2.0, 290), [9.0, 9.2, 9.4, 9.6]])
        with pytest.raises(BasisConstructionError, match="basis function 2[89]"):
            build_basis(knots, ExpSpace(2.0))
        assert calls == [len(knots) - 2 * CERTIFIED_BLOCK]

    def test_non_finite_system_skips_certificate(self, monkeypatch):
        # a last gap at alpha * h = 698 overflows the last three systems: their block
        # goes to the SVD without a Cholesky, which measures its 18 finite systems
        calls = {"cond": [], "cholesky": []}
        for name in calls:
            def counting(a, real=getattr(np.linalg, name), seen=calls[name]):
                seen.append(len(a))
                return real(a)
            monkeypatch.setattr(basis_mod.np.linalg, name, counting)
        with pytest.raises(BasisConstructionError, match="basis function 18 .*estimate inf"):
            build_basis(np.append(np.linspace(0.0, 1.0, 20), 350.0), ExpSpace(2.0))
        assert calls == {"cond": [18], "cholesky": []}

    @settings(deadline=None)
    @gap_ratios(EXP_ARG_LIMIT)
    # uniform knots either side of the ceiling: alpha * h = 12 builds, 13 does not
    @example(log_gaps=[0.0] * 10, log_alpha_h=np.log10(12.0))
    @example(log_gaps=[0.0] * 10, log_alpha_h=np.log10(13.0))
    def test_equals_svd_build_up_to_overflow(self, log_gaps, log_alpha_h):
        # the same table bits, or the same error, as a build that measures every system by SVD
        knots, space = gap_ratio_knots(log_gaps, log_alpha_h)

        def build():
            try:
                return build_basis(knots, space)
            except SplineError as exc:
                return exc

        got = build()
        with mock.patch.object(basis_mod.np.linalg, "cholesky", _uncertified):
            want = build()
        if isinstance(want, Exception):
            assert (type(got), str(got)) == (type(want), str(want))
        else:
            assert np.array_equal(got.table.view(np.uint64), want.table.view(np.uint64))
