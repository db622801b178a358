"""scipy's LAPACK wrappers, loaded without importing ``scipy.linalg``.

varsearch calls six LAPACK routines, all in scipy's f2py extension
``scipy/linalg/_flapack``.  Importing ``scipy.linalg`` to reach them cost
about 0.3 s (scipy 1.17, Python 3.11, a 2-CPU machine), most of it in
scipy's array-API layer, which imports numpy's testing, f2py, ma, random
and polynomial packages.  This module loads the
extension from its file instead: ``find_spec("scipy")`` locates the package
without running its ``__init__``.  Where that file is missing or does not
load on its own, the extension is imported through ``scipy.linalg``.  Either
way it is the same extension, so no answer depends on how it was found.

``qr_pivoted`` and ``solve_upper`` make the LAPACK calls, with the same
arguments, that ``scipy.linalg.qr`` and ``scipy.linalg.solve_triangular``
make for a float64 matrix, so their results are the same to the bit.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os

import numpy as np

__all__ = ["flapack", "qr_pivoted", "solve_upper"]


def _extension_path():
    """Path of scipy's ``linalg/_flapack`` extension, or None."""
    spec = importlib.util.find_spec("scipy")
    if spec is None or spec.origin is None:
        return None
    stem = os.path.join(os.path.dirname(spec.origin), "linalg", "_flapack")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        if os.path.isfile(stem + suffix):
            return stem + suffix
    return None


def _load():
    path = _extension_path()
    if path is not None:
        spec = importlib.util.spec_from_file_location("scipy.linalg._flapack", path)
        try:
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            return module
        except ImportError:
            pass  # e.g. its libraries are found only once scipy's __init__ ran
    from scipy.linalg import _flapack

    return _flapack


flapack = _load()


def _workspace_call(routine, *args, **kwargs):
    """Call a LAPACK routine after asking it for its optimal workspace."""
    # the query returns before it touches the matrix, so it needs no copy of it
    query = routine(*args, lwork=-1, **{**kwargs, "overwrite_a": 1})
    lwork = query[-2][0].real.astype(np.int_)
    result = routine(*args, lwork=lwork, **kwargs)
    if result[-1] < 0:
        raise ValueError(f"illegal value in {-result[-1]}th argument of internal LAPACK")
    return result[:-2]


def qr_pivoted(x, overwrite_x=False):
    """``scipy.linalg.qr(x, overwrite_a=overwrite_x, mode="economic",
    pivoting=True)`` for an M x N ndarray, M >= N >= 1.

    Returns ``(q, r, piv)``.  By default ``dgeqp3`` works on a copy and ``x``
    is never overwritten.  With ``overwrite_x`` a Fortran-ordered ``x`` is
    factored in its own memory, which holds ``q`` on return; any other
    layout is still copied, as LAPACK reads Fortran order only.
    """
    # np.asarray_chkfinite's test, one column at a time, so that its boolean
    # temporary is one column of x, not all of it
    if not all(np.isfinite(column).all() for column in x.T):
        raise ValueError("array must not contain infs or NaNs")
    qr, piv, tau = _workspace_call(flapack.dgeqp3, x, overwrite_a=overwrite_x)
    piv -= 1  # dgeqp3 numbers columns from 1
    r = np.triu(qr[: x.shape[1], :])
    (q,) = _workspace_call(flapack.dorgqr, qr, tau, overwrite_a=1)
    return q, r, piv


def solve_upper(r, b):
    """``scipy.linalg.solve_triangular(r, b, lower=False)`` for the R of
    ``qr_pivoted`` and a non-empty ndarray ``b``, which is not overwritten.

    dtrtrs reads Fortran order, so a C-ordered R is solved transposed, as
    scipy solves it; that R is Fortran-ordered only at 1 x 1, where scipy's
    untransposed call gives the same bits.  Raises ``np.linalg.LinAlgError``
    when a diagonal of ``r`` is zero.
    """
    r1, b1 = np.asarray_chkfinite(r), np.asarray_chkfinite(b)
    x, info = flapack.dtrtrs(r1.T, b1, lower=True, trans=1)
    if info > 0:
        raise np.linalg.LinAlgError(
            f"singular matrix: resolution failed at diagonal {info - 1}"
        )
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal trtrs")
    return x
