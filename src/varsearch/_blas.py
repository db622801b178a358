"""One OpenBLAS thread while a fit or a search runs.

numpy and scipy each load their own OpenBLAS, and each OpenBLAS keeps its
own pool of worker threads.  The matrices of a fit or a search are too
small for a second thread to pay: on a 2-CPU machine one pivoted-QR fit at
T' = 4992 took 21.2 ms with the default thread counts and 4.8 ms on one
thread.  ``one_blas_thread`` sets both libraries to one thread while the
code it wraps runs, and puts the previous counts back afterwards, also
when that code raises.

The setter is ``openblas_set_num_threads_local``, looked up on first use
through the handles of ``numpy.linalg._umath_linalg`` and
``scipy.linalg._flapack``: ``dlsym`` on an extension module searches the
libraries that module links, so each lookup finds that library's own
OpenBLAS.  With the pthreads OpenBLAS builds (0.3.30 and 0.3.31) that the
numpy 2.4 and scipy 1.17 wheels ship, the count it sets holds for every
thread of the process, not only the caller.  Scopes are therefore counted
across threads: the first to open saves the counts and sets one thread,
and the last to close restores the saved counts, whatever order threads
close them in.  Where no setter is found (MKL, Accelerate, OpenBLAS before
0.3.27) a scope does nothing.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import threading

__all__ = ["one_blas_thread"]

# the thread counts are process-wide, so the record of open scopes is too
_lock = threading.Lock()
_open_scopes = 0
_saved_counts = ()


@functools.cache
def _setters() -> tuple:
    """``openblas_set_num_threads_local`` of numpy's and of scipy's OpenBLAS."""
    from numpy.linalg import _umath_linalg
    from scipy.linalg import _flapack

    found = []
    for module in (_umath_linalg, _flapack):
        try:
            setter = ctypes.CDLL(module.__file__).openblas_set_num_threads_local
        except (OSError, AttributeError):
            continue
        setter.argtypes = [ctypes.c_int]
        setter.restype = ctypes.c_int
        found.append(setter)
    return tuple(found)


@contextlib.contextmanager
def one_blas_thread():
    """Run the body on one OpenBLAS thread; usable as ``@one_blas_thread()``."""
    global _open_scopes, _saved_counts
    setters = _setters()
    if not setters:
        yield
        return
    with _lock:
        if _open_scopes == 0:
            _saved_counts = tuple(setter(1) for setter in setters)
        _open_scopes += 1
    try:
        yield
    finally:
        with _lock:
            _open_scopes -= 1
            if _open_scopes == 0:
                # reverse order: if both lookups found one library, the
                # count saved first is the one left in place
                for setter, count in zip(setters[::-1], _saved_counts[::-1]):
                    setter(count)
