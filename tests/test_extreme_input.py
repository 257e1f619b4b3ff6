"""The documented error classes under extreme input.

Every public entry point either returns finite values or raises a
``SplineError`` subclass: never a numpy ``RuntimeWarning`` (an error under the
test configuration), a NaN model or any other exception.
"""

import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from epspline import (BandedMatrix, DomainError, ExpSpace, GreedyConfig, Interpolant,
                      InvalidInputError, SplineError, build_basis, collocation_matrix, cond2,
                      f_greedy, factorize, fit, lambda_greedy, lebesgue_function, sparsity,
                      tps_fit, tps_kernel)
from epspline.diagnostics import skeel_condition
from epspline.nodes import equispaced


@st.composite
def extreme_knots(draw):
    """(knots, alpha): 2-12 knots, gap ratios up to 1e12, a span from 1e-300 to
    1e300 placed anywhere in [-1e300, 1e300], and alpha * span from 1e-3 to 1e3."""
    log_gaps = draw(st.lists(st.floats(0.0, 12.0), min_size=1, max_size=11))
    span = 10.0 ** draw(st.floats(-300.0, 300.0))
    left = draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(-300.0, 300.0))
    left = min(left, 1e300 - span)
    gaps = 10.0 ** np.array(log_gaps)
    t = np.concatenate([[0.0], np.cumsum(gaps) / gaps.sum()])
    knots = left + span * t
    knots[-1] = left + span
    return knots, 10.0 ** draw(st.floats(-3.0, 3.0)) / span


def _finite_or_spline_error(compute):
    """Check ``compute()`` returns finite values unless it raises a ``SplineError``."""
    try:
        values = compute()
    except SplineError:
        return
    assert np.all(np.isfinite(values))


@settings(max_examples=300, deadline=None)
@given(case=extreme_knots())
# the kernel's r^2 overflows: a NaN model at 1e200, a greedy fitting NaN weights at 1e160
@example(case=(np.array([-1e200, 0.0, 1e200]), 1e-200))
@example(case=(np.linspace(-1e160, 1e160, 6), 1e-160))
# the mirrored end knots overflow to inf
@example(case=(np.array([0.0, 1e308]), 1e-308))
@example(case=(np.array([-1e308, 0.0, 1e308]), 1e-300))
def test_extreme_input_is_finite_or_spline_error(case):
    knots, alpha = case
    y = np.cos(np.arange(len(knots)))
    try:
        basis = build_basis(knots, ExpSpace(alpha))
    except SplineError:
        basis = None
    if basis is not None:
        assert np.all(np.isfinite(basis.table))
        _finite_or_spline_error(lambda: fit(basis, y)(knots))
        grid = np.sort(np.concatenate([knots, np.linspace(knots[0], knots[-1], 33)]))
        _finite_or_spline_error(lambda: lebesgue_function(basis, grid))

    def tps_parameters():
        model = tps_fit(knots, y)
        return np.concatenate([model.weights, model.tail])

    _finite_or_spline_error(tps_parameters)


@settings(max_examples=200, deadline=None)
@given(case=extreme_knots(), scale=st.floats(1.0, 1e308))
# data alternating +-1e308 solve to infinite coefficients; at +-5e307 the
# coefficients are finite but their sums on each interval are not
@example(case=(np.linspace(-1.0, 1.0, 12), 2.0), scale=1e308)
@example(case=(np.linspace(-1.0, 1.0, 12), 2.0), scale=5e307)
def test_fit_at_any_data_scale_is_finite_or_domain_error(case, scale):
    knots, alpha = case
    try:
        basis = build_basis(knots, ExpSpace(alpha))
        lu = factorize(collocation_matrix(basis))
    except SplineError:
        return
    y = scale * (-1.0) ** np.arange(len(knots))
    grid = np.sort(np.concatenate([knots, np.linspace(knots[0], knots[-1], 33)]))
    try:
        values = fit(basis, y, lu=lu)(grid)
    except DomainError:
        # on these knots the coefficients and pp are within about 1e12 of the
        # data (4.5e11 the largest in 2000 draws), so smaller data never overflow
        assert not scale < 1e290
        return
    assert np.all(np.isfinite(values))


@given(x=st.floats())
# r^2 overflows, and a NaN point has no distance to the centres
@example(x=1e200)
@example(x=float("nan"))
def test_kernel_value_is_finite_or_domain_error(x):
    model = tps_fit([0.0, 1.0, 2.0], [0.0, 1.0, 0.0])
    try:
        value = model(x)
    except DomainError as err:
        # only where r^2 log r overflows, from |x| near 7.1e152, or x is not finite
        assert not abs(x) < 1e150
        assert str(err) == f"kernel interpolant not finite at x = {x!r}"
        with pytest.raises(DomainError, match=re.escape(f"at x = {x!r}")):
            model(np.array([[0.5, x]]))
        return
    assert np.isfinite(value)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_interpolant_near_overflow_is_bounded_or_domain_error():
    # α·h = 10 and data ±3e305: pp peaks at 1.0e308, finite, but its partial
    # sums on a knot interval reach about 1e5 times the data, so a call can
    # overflow even at the node x = 1, whose value is the datum 3e305. On data
    # ±1 the interpolant peaks at 1.0000000000146 on this grid.
    interp = fit(build_basis(equispaced(5), ExpSpace(20.0)), 3e305 * (-1.0) ** np.arange(5))
    grid = np.linspace(-1.0, 1.0, 2001)
    for points in (grid, *grid):
        try:
            values = interp(points)
        except DomainError:
            continue
        assert np.all(np.abs(values) <= 1.01 * 3e305)  # false for NaN and inf too


_SPACE = ExpSpace(2.0)
_BASIS = build_basis(equispaced(5), _SPACE)
_RAGGED = [[1.0, 2.0], [3.0]]


@pytest.mark.parametrize("call", [
    lambda: build_basis("abc", _SPACE),
    lambda: build_basis(np.array([0.0, 1.0, 2.0], dtype=complex), _SPACE),
    lambda: build_basis([0, 10 ** 400], _SPACE),
    lambda: fit(_BASIS, [0, 1j, 2, 3, 4]),
    lambda: _BASIS.active_values("x"),
    lambda: fit(_BASIS, np.ones(5))(np.array([0.5j])),
    lambda: lebesgue_function(_BASIS, [[0.1], [0.2, 0.3]]),
    lambda: lambda_greedy(_RAGGED, GreedyConfig(alpha=2.0)),
    lambda: f_greedy(equispaced(5), [0, 1, "2", 3, 4], GreedyConfig(alpha=2.0)),
    lambda: tps_fit([0, "x", 2], [1.0, 2.0, 3.0]),
    lambda: tps_fit([0.0, 1.0, 2.0], [1.0, 2.0, 3.0])([0.5, 1j]),
    lambda: cond2(_RAGGED),
    lambda: sparsity(_RAGGED),
    lambda: skeel_condition(_RAGGED),
    lambda: Interpolant(_BASIS, ["a"] * 5),
    lambda: Interpolant(_BASIS, np.ones(5, dtype=complex)),
    lambda: BandedMatrix([1.0], ["x", 2.0], [1.0]),
    lambda: factorize(collocation_matrix(_BASIS)).solve([0, 1j, 2, 3, 4]),
    lambda: tps_kernel("x"),
], ids=["str-knots", "complex-knots", "int-beyond-float", "complex-data", "str-point",
        "complex-point", "ragged-grid", "ragged-candidates", "str-values", "str-centers",
        "complex-kernel-point", "cond2-ragged", "sparsity-ragged", "skeel-ragged",
        "str-coefficients", "complex-coefficients", "str-diagonal", "complex-rhs",
        "str-distance"])
def test_input_that_is_not_real_numbers_is_invalid_input(call):
    # strings, complex values and ragged sequences, never a bare numpy ValueError or TypeError
    with pytest.raises(InvalidInputError, match="must be real numbers"):
        call()
