import math
import re

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from epspline import InvalidInputError, NodeSpec, generate
from epspline.nodes import chebyshev_lobatto, equispaced, halton, van_der_corput


def test_equispaced_three_points():
    assert np.array_equal(equispaced(3), [-1.0, 0.0, 1.0])


def test_chebyshev_three_points():
    got = chebyshev_lobatto(3)
    assert got[0] == -1.0 and got[-1] == 1.0
    assert abs(got[1]) < 1e-15


def test_halton_five_points():
    assert np.allclose(halton(5), [-1.0, -0.5, 0.0, 0.5, 1.0], atol=0.0)


def test_van_der_corput_prefix():
    got = [van_der_corput(k) for k in range(1, 8)]
    assert got == [0.5, 0.25, 0.75, 0.125, 0.625, 0.375, 0.875]
    assert van_der_corput(np.arange(1, 8)).tolist() == got


@pytest.mark.parametrize("kind", ["equispaced", "chebyshev", "halton"])
@pytest.mark.parametrize("n", [2, 8, 33, 300])
def test_sorted_strict_with_exact_endpoints(kind, n):
    pts = generate(NodeSpec(kind, n, (-2.0, 3.0)))
    assert len(pts) == n
    assert pts[0] == -2.0 and pts[-1] == 3.0
    assert np.all(np.diff(pts) > 0)


def test_equispaced_constant_spacing():
    pts = equispaced(57, 0.0, 1.0)
    gaps = np.diff(pts)
    assert gaps.max() - gaps.min() <= 1e-12


def test_count_too_small():
    with pytest.raises(InvalidInputError):
        NodeSpec("equispaced", 1)


def test_unknown_kind():
    with pytest.raises(InvalidInputError):
        NodeSpec("sobol", 5)


def test_bad_interval():
    with pytest.raises(InvalidInputError):
        NodeSpec("equispaced", 5, (1.0, 1.0))


@pytest.mark.parametrize("interval", [(0.0, 1.0, 2.0), (0.0,), 1.0, None, ("a", "b")],
                         ids=["triple", "single", "scalar", "None", "strings"])
def test_interval_not_a_pair_of_reals(interval):
    with pytest.raises(InvalidInputError, match="bad interval"):
        NodeSpec("equispaced", 5, interval)


@pytest.mark.parametrize("count", [2.5, 8.0, "8"])
def test_count_not_integer(count):
    with pytest.raises(InvalidInputError, match="integer"):
        NodeSpec("equispaced", count)


def test_numpy_integer_count():
    assert np.array_equal(generate(NodeSpec("equispaced", np.int64(3))), [-1.0, 0.0, 1.0])


LARGEST = np.finfo(float).max


@pytest.mark.parametrize("kind", ["equispaced", "chebyshev", "halton"])
@given(a=st.floats(allow_nan=False, allow_infinity=False),
       b=st.floats(allow_nan=False, allow_infinity=False),
       n=st.sampled_from([2, 3, 8, 300]))
@example(a=-1e308, b=1e308, n=8)  # the length overflows
@example(a=-8e307, b=8e307, n=8)  # finite length, past half the float range
@example(a=-LARGEST, b=0.0, n=8)  # np.linspace's last step rounds past the float range
@example(a=8e307, b=LARGEST, n=3)  # b - a rounds up, so a + (b - a) overflows
@example(a=0.0, b=LARGEST, n=300)
@example(a=-LARGEST / 2, b=LARGEST / 2, n=300)
@example(a=0.0, b=5e-324, n=3)  # one subnormal step: the points collide
def test_finite_increasing_or_invalid_near_the_float_range(kind, a, b, n):
    assume(a < b)
    if not math.isfinite(b - a):
        with pytest.raises(InvalidInputError, match=re.escape(f"interval {(a, b)}: its length")):
            NodeSpec(kind, n, (a, b))
        return
    try:
        pts = generate(NodeSpec(kind, n, (a, b)))
    except InvalidInputError:
        return
    assert len(pts) == n and pts[0] == a and pts[-1] == b
    assert np.all(np.isfinite(pts)) and np.all(pts[1:] > pts[:-1])
