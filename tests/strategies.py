"""``hypothesis`` strategies shared by the test modules."""

import numpy as np
from hypothesis import assume, given
from hypothesis import strategies as st

from epspline import BasisConstructionError, ExpSpace, build_basis


def gap_ratios(max_alpha_h):
    """Knot gaps spread over six orders of magnitude, alpha * (largest gap) up to ``max_alpha_h``."""
    return given(
        log_gaps=st.lists(st.floats(-6.0, 0.0), min_size=1, max_size=40),
        log_alpha_h=st.floats(-3.0, np.log10(max_alpha_h)),
    )


across_gap_ratios = gap_ratios(30.0)


def gap_ratio_knots(log_gaps, log_alpha_h):
    """The knots and space of the drawn knot gaps."""
    gaps = 10.0 ** np.array(log_gaps)
    return np.concatenate([[0.0], np.cumsum(gaps)]), ExpSpace(10.0 ** log_alpha_h / gaps.max())


def gap_ratio_basis(log_gaps, log_alpha_h):
    """The basis on the drawn knot gaps; a failed build is skipped."""
    try:
        basis = build_basis(*gap_ratio_knots(log_gaps, log_alpha_h))
    except BasisConstructionError:
        basis = None
    assume(basis is not None)
    return basis
