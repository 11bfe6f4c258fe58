"""Cap the BLAS thread pool of forked worker processes.

NumPy's bundled OpenBLAS starts one thread per core in every process that calls
into it.  A pool of ``N`` fork workers therefore runs ``N × cores`` BLAS threads on
``cores`` CPUs, and the busy-waiting threads starve each other: on a 2-core host the
2-worker warm pool ran the derive phase slower than the serial loop.  Each worker
calls :func:`cap_worker_blas_threads` right after it starts, so the workers together
use at most one BLAS thread per core, and a worker capped to one thread keeps no
busy-waiting OpenBLAS helper thread.

``threadpoolctl`` is not a dependency, so the cap goes through ``ctypes`` to the
OpenBLAS that is already loaded.  Where no OpenBLAS is found (another BLAS, or a
platform without ``/proc/self/maps``), the cap is a no-op.
"""

from __future__ import annotations

import ctypes
import os
from typing import Callable, Optional

#: Symbol prefixes and suffixes of the OpenBLAS API across builds: plain, 64-bit
#: integer (``64_``) and the ``scipy_`` prefixed build that NumPy wheels ship.
_PREFIXES = ("openblas_", "scipy_openblas_")
_SUFFIXES = ("", "64_")


def available_cores() -> int:
    """CPUs this process may run on (its affinity mask where the OS exposes one)."""
    if hasattr(os, "sched_getaffinity"):
        return max(1, len(os.sched_getaffinity(0)))
    return max(1, os.cpu_count() or 1)


def _api_function(library: ctypes.CDLL, name: str) -> Optional[Callable]:
    """``name`` (e.g. ``set_num_threads``) from ``library`` under any API prefix/suffix."""
    for prefix in _PREFIXES:
        for suffix in _SUFFIXES:
            function = getattr(library, f"{prefix}{name}{suffix}", None)
            if function is not None:
                return function
    return None


def _openblas_library() -> Optional[ctypes.CDLL]:
    """The first loaded OpenBLAS (by path) that exports the thread-count API."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            paths = {line.split()[-1] for line in handle if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        if _api_function(library, "set_num_threads") is not None:
            return library
    return None


def _openblas_function(name: str) -> Optional[Callable]:
    """``name`` (e.g. ``set_num_threads``) from the OpenBLAS loaded in this process."""
    library = _openblas_library()
    return None if library is None else _api_function(library, name)


def blas_threads() -> Optional[int]:
    """The loaded OpenBLAS's thread count, or ``None`` if no OpenBLAS was found."""
    getter = _openblas_function("get_num_threads")
    if getter is None:
        return None
    getter.restype = ctypes.c_int
    return int(getter())


def set_blas_threads(threads: int) -> bool:
    """Set the loaded OpenBLAS's thread count; returns whether an OpenBLAS was found."""
    setter = _openblas_function("set_num_threads")
    if setter is None:
        return False
    setter.argtypes = [ctypes.c_int]
    setter.restype = None
    setter(max(1, int(threads)))
    return True


def cap_worker_blas_threads(n_workers: int) -> bool:
    """In a pool worker: limit BLAS to this worker's share of the cores.

    Call it first thing in a freshly started worker, before any BLAS work and before
    the worker starts threads of its own.  In a forked child, setting the thread
    count starts OpenBLAS's helper threads, and an idle helper busy-waits for
    OpenBLAS's thread timeout (about 0.1 s of a core) before it sleeps.  A worker
    capped to one thread never hands work to a helper, so its helpers are shut down
    again at once (``blas_thread_shutdown_``, the routine OpenBLAS's own fork handler
    calls).  Left spinning, they made the first tasks of two fresh workers on a
    2-core host run 1.5-1.8x slower than the same tasks run serially.
    """
    threads = max(1, available_cores() // max(1, n_workers))
    if not set_blas_threads(threads):
        return False
    shutdown = getattr(_openblas_library(), "blas_thread_shutdown_", None)
    if threads == 1 and shutdown is not None:
        shutdown()
    return True
