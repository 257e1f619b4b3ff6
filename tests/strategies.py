"""``hypothesis`` strategies shared by the test modules."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

# knot gaps spread over six orders of magnitude, alpha * (largest gap) up to 30
across_gap_ratios = given(
    log_gaps=st.lists(st.floats(-6.0, 0.0), min_size=1, max_size=40),
    log_alpha_h=st.floats(-3.0, np.log10(30.0)),
)
