"""Host speed, measured by timing fixed work alongside the workload.

The shared host the benchmark was written on changes speed by up to 1.5x,
over seconds as well as minutes, and the guest sees no steal time while it
does: a run taken in a slow minute reads 30-40% slower than one taken in a
fast minute, which is more than the bounds in ``BENCHMARK.json``. So the
runner also times work that no change to epspline can move, and reports
times scaled to a reference host:

- pass times by ``Calibration.seconds``, a fixed mix of the work the
  workloads spend their time on (interpreted Python, small LAPACK calls,
  array arithmetic), timed before the first pass and after every pass; the
  host is taken to be as fast as the mean calibration says;
- set-up times by the time a fresh process takes to import numpy and
  scipy.linalg, which is most of set-up and slows with it when process
  start-up and page faults are slow, while the calibration does not.

The unscaled times are printed and kept in the run's record.
"""

import statistics
import time

import numpy as np
from scipy.linalg import lapack

# Calibration and baseline-import times of the reference host, about those
# of the 2-core x86_64 VM (OpenBLAS core SkylakeX, numpy 2.4.6, scipy 1.17.1)
# the benchmark was written on. They only fix the scale of the reported
# times; any constants would do, as long as they never change.
REFERENCE_S = 0.25
REFERENCE_IMPORT_S = 0.4

PYTHON_STEPS = 15_000   # interpreted loop iterations
SMALL_SYSTEMS = 16      # 16x16 solves and condition numbers, as in build_basis
BAND_ORDER = 150        # a transposed banded solve with many right-hand
BAND_RHS = 500          # sides, as in Lebesgue scoring
GRID_POINTS = 50_000    # elementwise work on an evaluation grid
# The arrays stay under 1 MB so that they barely move peak_rss_mb.


class Calibration:
    """The fixed work, with its inputs made once."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.small = rng.standard_normal((SMALL_SYSTEMS, 16, 16)) + 16.0 * np.eye(16)
        self.rhs = rng.standard_normal(16)
        # A diagonally dominant matrix with two sub- and superdiagonals, in
        # LAPACK's band storage with room for the fill-in of pivoting.
        band = rng.uniform(-1.0, 1.0, (7, BAND_ORDER))
        band[4] += 8.0
        self.band_lu, self.band_piv, info = lapack.dgbtrf(band, 2, 2)
        if info != 0:
            raise ValueError(f"dgbtrf failed with info={info}")
        self.band_rhs = rng.standard_normal((BAND_ORDER, BAND_RHS))
        self.grid = np.linspace(-1.0, 1.0, GRID_POINTS)
        self.seconds()  # first touch of every array and library path

    def _work(self) -> float:
        acc = 0
        for i in range(PYTHON_STEPS):
            acc += (i * i) % 7
        for a in self.small:
            acc += np.linalg.solve(a, self.rhs)[0] + np.linalg.cond(a)
        x, _ = lapack.dgbtrs(self.band_lu, 2, 2, self.band_rhs, self.band_piv, trans=1)
        acc += float(np.abs(x).sum(axis=0).max())
        acc += float(np.exp(-np.abs(self.grid) * 3.0).sum())
        return acc

    def seconds(self, repeats: int = 60) -> float:
        """Time of ``repeats`` rounds of the fixed work."""
        t0 = time.perf_counter()
        for _ in range(repeats):
            self._work()
        return time.perf_counter() - t0


def scale(calibrations) -> float:
    """Factor from seconds on this host, at the mean speed the calibrations
    saw, to seconds on the reference host."""
    return REFERENCE_S / statistics.fmean(calibrations)
