"""isoconv's thread pool and the process settings that come with it.

isoconv runs its own threads instead of BLAS's.  Importing this module reads
ISOCONV_THREADS, sets numpy's OpenBLAS to one thread for the whole process,
sets glibc's malloc to a single arena, and keeps one pool of WORKERS threads:
ISOCONV_THREADS of them, or one per core (_CORES) when it is unset, never
more than _CORES, and one when OpenBLAS cannot be set to one thread.  No
other module decides the worker count.  A forked child gets a pool of its own.

The pool runs two kinds of work, both through run_tasks: the Z_p kernels'
direction blocks (isoconv.centroid) and independent hull volumes (the
kubota and zn-volrad suites).  A task never calls run_tasks itself, so never
a Z_p kernel: its tasks would queue behind it on the same workers.

Threads other than the first each get a malloc arena of their own by
default, and a hull's temporaries freed there stay resident, so every worker
would add its own high-water mark to the process's peak RSS.  One arena
keeps one high-water mark; the large buffers are mmapped either way.
"""

from __future__ import annotations

import ctypes
import glob
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np

_M_ARENA_MAX = -8  # glibc's mallopt parameter number
_PREFIX = "isoconv-zp"

# the cores this process may run on: the most workers there can be
_CORES = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
          else os.cpu_count() or 1)


def _thread_cap() -> int:
    """The worker count ISOCONV_THREADS asks for, clamped to _CORES.

    Unset or empty means every core.  A value that is not an integer of at
    least 1 is a ValueError.
    """
    cap = os.environ.get("ISOCONV_THREADS")
    if not cap:
        return _CORES
    try:
        threads = int(cap)
    except ValueError:
        threads = 0
    if threads < 1:
        raise ValueError(f"ISOCONV_THREADS must be an integer >= 1, got {cap!r}")
    return min(threads, _CORES)


def _one_openblas_thread() -> bool:
    """Set numpy's OpenBLAS to one thread; False if its runtime setter is not found.

    A threaded BLAS splits a long dot product across its threads, which would
    move the last digit of a value with the thread count.
    """
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        try:
            lib = ctypes.CDLL(path)  # the copy numpy loaded, not a second one
            set_threads = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        set_threads(1)
        return True
    return False


def _single_malloc_arena() -> None:
    """mallopt(M_ARENA_MAX, 1) where the C library is glibc; else nothing."""
    try:
        libc = ctypes.CDLL(None)
        libc.gnu_get_libc_version  # glibc only
        mallopt = libc.mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    mallopt(_M_ARENA_MAX, 1)


def _new_pool() -> None:
    """A fresh pool; a forked child gets one, as its parent's threads are gone."""
    global _POOL
    _POOL = ThreadPoolExecutor(WORKERS, thread_name_prefix=_PREFIX)  # threads start on use


WORKERS = _thread_cap()
if not _one_openblas_thread():
    WORKERS = 1
_single_malloc_arena()
_new_pool()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_new_pool)


def run_tasks(tasks) -> list:
    """Run zero-argument callables on the pool; return their results in order.

    Every task finishes before the first error, in task order, reaches the
    caller.  Called from a pool thread it raises RuntimeError at once, as
    the new tasks would wait behind the task that waits for them.
    """
    if threading.current_thread().name.startswith(_PREFIX):
        raise RuntimeError("run_tasks called from a pool task, whose new tasks would "
                           "wait behind it")
    futures = [_POOL.submit(task) for task in tasks]
    wait(futures)
    return [future.result() for future in futures]
