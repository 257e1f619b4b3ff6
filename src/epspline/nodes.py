"""Candidate point-set generators on an interval: equispaced, Chebyshev, Halton."""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, check_integer

KINDS = ("equispaced", "chebyshev", "halton")


@dataclass(frozen=True)
class NodeSpec:
    """Requested point family, count and interval; output always contains a and b."""

    kind: str
    count: int
    interval: tuple[float, float] = (-1.0, 1.0)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InvalidInputError(f"unknown node kind {self.kind!r}, expected one of {KINDS}")
        check_integer("node count", self.count)
        if self.count < 2:
            raise InvalidInputError(f"need at least 2 points, got {self.count}")
        try:
            a, b = self.interval
            ok = np.isfinite(a) and np.isfinite(b) and a < b
        except (TypeError, ValueError):  # not a pair of real numbers
            ok = False
        if not ok:
            raise InvalidInputError(f"bad interval {self.interval}")
        if not np.isfinite(float(b) - float(a)):  # Python floats overflow silently
            raise InvalidInputError(f"interval {self.interval}: its length b - a overflows")


def equispaced(n: int, a: float = -1.0, b: float = 1.0) -> np.ndarray:
    return generate(NodeSpec("equispaced", n, (a, b)))


def chebyshev_lobatto(n: int, a: float = -1.0, b: float = 1.0) -> np.ndarray:
    return generate(NodeSpec("chebyshev", n, (a, b)))


def halton(n: int, a: float = -1.0, b: float = 1.0) -> np.ndarray:
    return generate(NodeSpec("halton", n, (a, b)))


def van_der_corput(k):
    """Base-2 radical inverse of k >= 1 (an int, or elementwise): 1/2, 1/4, 3/4, 1/8, ..."""
    k = np.asarray(k)
    v, scale = np.zeros(k.shape), 0.5
    while np.any(k):
        v += scale * (k & 1)
        k = k >> 1
        scale *= 0.5
    return v if v.ndim else float(v)


def generate(spec: NodeSpec) -> np.ndarray:
    """Sorted, strictly increasing points including both interval endpoints.

    Chebyshev uses the Lobatto family (endpoints included by construction);
    Halton in one dimension is the unscrambled base-2 van der Corput sequence
    on the open interval with the endpoints appended.
    """
    a, b = spec.interval
    n = spec.count
    with np.errstate(over="ignore"):  # a point rounded past the float range is at or beyond b
        if spec.kind == "equispaced":
            pts = np.linspace(a, b, n)
        elif spec.kind == "chebyshev":
            pts = a + (b - a) * ((1.0 + np.cos(np.pi * np.arange(n) / (n - 1))[::-1]) / 2.0)
        else:
            inner = a + (b - a) * van_der_corput(np.arange(1, n - 1))
            pts = np.sort(np.concatenate([[a, b], inner]))
    pts[0], pts[-1] = a, b
    if not np.all(np.isfinite(pts)) or np.any(np.diff(pts) <= 0.0):
        raise InvalidInputError(f"{spec.kind} produced colliding points for n={n}")
    return pts
