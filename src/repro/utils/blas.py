"""Thread count of numpy's bundled OpenBLAS for the processes a pool starts.

A pool worker fills its own r² regions with tall GEMM strips. On
OpenBLAS's default thread count every worker runs one BLAS thread per
core, so two workers on a two-core host run four busy threads (DESIGN §7
has the measurements). :func:`child_blas_threads` sets the count in the
*parent*, around the fork: a forked child inherits OpenBLAS's state, so
it starts on that count without calling OpenBLAS itself. Children that
start a fresh interpreter (``spawn``, ``forkserver``) load OpenBLAS anew
and read ``OPENBLAS_NUM_THREADS`` from the environment they start with,
which the block sets too.

Two rules keep the fork cheap. OpenBLAS shuts its thread pool down
before a fork, and its setter rebuilds the pool before anything else:

* the setter is never called in a process forked after this module was
  imported, where the rebuilt threads would compete with the process's
  own work;
* the parent's count is restored by writing ``blas_cpu_number``, the
  variable the setter assigns, so the parent's pool is rebuilt only when
  the parent next runs a threaded BLAS call. A rebuilt pool spins for
  about 0.1 s before its threads sleep, against the workers the fork has
  just started. Without that variable the setter restores the count.

The library is reached through ctypes on numpy's bundled
``scipy_openblas``; when it or its thread symbols are missing, the
helper changes nothing but the environment variable.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import os
from typing import Callable, Iterator, NamedTuple, Optional

__all__ = ["blas_threads", "child_blas_threads"]

#: The environment variable OpenBLAS reads when it loads.
THREADS_ENV = "OPENBLAS_NUM_THREADS"

_forked = False


def _mark_forked() -> None:
    global _forked
    _forked = True


if hasattr(os, "register_at_fork"):  # Unix only; elsewhere nothing forks
    os.register_at_fork(after_in_child=_mark_forked)


class _OpenBLAS(NamedTuple):
    get: Callable[[], int]
    set: Callable[[int], None]
    #: ``blas_cpu_number``, when the library exports it.
    count: Optional[ctypes.c_int]


@functools.lru_cache(maxsize=None)
def _openblas() -> Optional[_OpenBLAS]:
    """numpy's bundled OpenBLAS, or ``None`` when the library or either
    thread symbol is missing."""
    import numpy

    libs = os.path.join(
        os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs"
    )
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas*"))):
        try:
            # numpy has loaded the library already, so this maps the same
            # instance rather than a second copy.
            lib = ctypes.CDLL(path)
            get = lib.scipy_openblas_get_num_threads64_
            set_ = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        try:
            count = ctypes.c_int.in_dll(lib, "blas_cpu_number")
        except ValueError:
            count = None
        return _OpenBLAS(get, set_, count)
    return None


def blas_threads() -> Optional[int]:
    """This process's OpenBLAS thread count, or ``None`` when unknown."""
    lib = _openblas()
    return None if lib is None else int(lib.get())


@contextlib.contextmanager
def child_blas_threads() -> Iterator[None]:
    """Start the processes created inside the block on one BLAS thread.

    Sets this process's count (unless it was forked, see the module
    docstring) and ``OPENBLAS_NUM_THREADS`` to 1, and restores both on
    exit.
    """
    saved_env = os.environ.get(THREADS_ENV)
    lib = None if _forked else _openblas()
    saved = None if lib is None else int(lib.get())
    os.environ[THREADS_ENV] = "1"
    if saved is not None and saved != 1:
        lib.set(1)
    try:
        yield
    finally:
        if saved is not None and saved != 1:
            if lib.count is not None:
                lib.count.value = saved
            else:
                lib.set(saved)
        if saved_env is None:
            os.environ.pop(THREADS_ENV, None)
        else:
            os.environ[THREADS_ENV] = saved_env
