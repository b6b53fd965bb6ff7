"""The host record every result carries: cores, BLAS, kernel backend."""

from __future__ import annotations

import ctypes
import os
import platform
import resource
from pathlib import Path

import numpy as np

#: Symbols OpenBLAS builds export for the live thread count (plain,
#: 64-bit-integer, and the scipy-openblas prefixed variants).
_BLAS_THREAD_SYMBOLS = (
    "openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "scipy_openblas_get_num_threads64_",
)


def _loaded_blas_libraries() -> list[str]:
    """Paths of the BLAS shared objects mapped into this process."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return []
    paths = {line.split()[-1] for line in maps.splitlines() if "blas" in line}
    return sorted(p for p in paths if p.startswith("/") and ".so" in p)


def _blas_info() -> dict:
    """BLAS name/version from numpy's build config, threads from the library.

    ``threads`` is the library's own thread count at start-up (the host
    default; the benchmark does not pin it), ``None`` if unreadable.
    """
    info: dict = {"name": "unknown", "version": "unknown", "threads": None}
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        info["name"] = str(blas.get("name", "unknown"))
        info["version"] = str(blas.get("version", "unknown"))
    except (AttributeError, KeyError, TypeError):
        pass
    for path in _loaded_blas_libraries():
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for symbol in _BLAS_THREAD_SYMBOLS:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                info["threads"] = int(fn())
                return info
    return info


def host_record() -> dict:
    """Core count, BLAS library and threads, plan backend, versions."""
    from repro.wasm.plan_compile import backend_available, backend_error

    try:
        usable_cores = len(os.sched_getaffinity(0))
    except AttributeError:
        usable_cores = os.cpu_count()
    return {
        "cores": os.cpu_count(),
        "usable_cores": usable_cores,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_info(),
        "plan_backend_available": backend_available(),
        "plan_backend_error": backend_error(),
    }


def peak_rss_mb() -> float:
    """Peak resident set of this process (children excluded), in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
