"""Exponential-polynomial spline interpolation with greedy node selection.

The pieces, bottom up: a four-dimensional exponential segment space
(``space``), compactly supported C2 basis functions over the interior knots
(``basis``), banded collocation interpolation with cardinal basis and
Lebesgue function (``interpolate``, ``banded``), residual- and
Lebesgue-driven greedy node selection (``greedy``), stability diagnostics and
an error-bound checker (``diagnostics``), point-set generators (``nodes``), a
thin-plate-spline comparison baseline (``kernel``) and an experiment CLI
(``cli``).
"""

from .banded import BandedLU, BandedMatrix, factorize
from .basis import GBSplineBasis, build_basis
from .diagnostics import (
    BoundCheck,
    check_error_bound,
    cond2,
    minimax_proxy,
    skeel_condition,
    sparsity,
)
from .errors import (
    BasisConstructionError,
    DomainError,
    InvalidInputError,
    SingularSystemError,
    SplineError,
)
from .greedy import (
    GreedyConfig,
    GreedyError,
    GreedyStep,
    GreedyTrace,
    f_greedy,
    lambda_greedy,
)
from .interpolate import (
    Interpolant,
    cardinal_values,
    collocation_matrix,
    fit,
    lebesgue_constant,
    lebesgue_function,
)
from .kernel import KernelInterpolant, kernel_f_greedy, tps_fit, tps_kernel
from .nodes import NodeSpec, chebyshev_lobatto, equispaced, generate, halton
from .space import ExpSpace

__version__ = "0.1.0"

__all__ = [
    "BandedLU",
    "BandedMatrix",
    "BasisConstructionError",
    "BoundCheck",
    "DomainError",
    "ExpSpace",
    "GBSplineBasis",
    "GreedyConfig",
    "GreedyError",
    "GreedyStep",
    "GreedyTrace",
    "Interpolant",
    "InvalidInputError",
    "KernelInterpolant",
    "NodeSpec",
    "SingularSystemError",
    "SplineError",
    "build_basis",
    "cardinal_values",
    "chebyshev_lobatto",
    "check_error_bound",
    "collocation_matrix",
    "cond2",
    "equispaced",
    "f_greedy",
    "factorize",
    "fit",
    "generate",
    "halton",
    "kernel_f_greedy",
    "lambda_greedy",
    "lebesgue_constant",
    "lebesgue_function",
    "minimax_proxy",
    "skeel_condition",
    "sparsity",
    "tps_fit",
    "tps_kernel",
]
