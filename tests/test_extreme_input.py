"""The documented error classes under extreme input.

Every public entry point either returns finite values or raises a
``SplineError`` subclass: never a numpy ``RuntimeWarning`` (an error under the
test configuration), a NaN model or any other exception.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from epspline import (DomainError, ExpSpace, SplineError, build_basis, collocation_matrix,
                      factorize, fit, lebesgue_function, tps_fit)
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
        assert np.all(np.isfinite(basis.coef))
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
    except DomainError:
        # only where r^2 log r overflows, from |x| near 7.1e152, or x is not finite
        assert not abs(x) < 1e150
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
