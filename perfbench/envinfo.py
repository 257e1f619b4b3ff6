"""The environment a result was measured in.

The CPU is named by the core type OpenBLAS selected at run time, asked of
the OpenBLAS libraries bundled with numpy and scipy; the benchmark reads no
system files outside its checkout.
"""

import ctypes
import os
import platform
from pathlib import Path

import numpy
import scipy

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _openblas(package) -> list:
    """Version, core type and thread count of each OpenBLAS bundled with ``package``."""
    libs_dir = Path(package.__file__).resolve().parent.parent / f"{package.__name__}.libs"
    found = []
    for path in sorted(libs_dir.glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for symbol in ("scipy_openblas_{}64_", "scipy_openblas_{}", "openblas_{}64_",
                       "openblas_{}"):
            try:
                corename, config, threads = (getattr(lib, symbol.format(f"get_{what}"))
                                             for what in ("corename", "config", "num_threads"))
            except AttributeError:
                continue
            corename.restype = config.restype = ctypes.c_char_p
            threads.restype = ctypes.c_int
            found.append({"library": path.name, "config": config().decode(),
                          "core": corename().decode(), "threads": threads()})
            break
    return found


def environment() -> dict:
    openblas = {"numpy": _openblas(numpy), "scipy": _openblas(scipy)}
    cores = sorted({lib["core"] for libs in openblas.values() for lib in libs})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": f"{platform.machine()} {'/'.join(cores) or 'unknown core'}",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "openblas": openblas,
    }
