"""Top-eigenvalue computation for Hermitian matrices.

Small matrices go through the dense LAPACK solver; large ones through
Lanczos (ARPACK) with a fixed deterministic start vector, so results are
reproducible run to run.

Both paths run with the bundled OpenBLAS libraries limited to one thread.
ARPACK's matvecs and the small dense solves are too short to share across
cores: on two threads they spend most of their time synchronising (about
20x slower at order 400).  One thread also keeps the eigenvalues from
depending on the process's thread setting, since threaded complex matvecs
can round differently in the last bit.
"""
from __future__ import annotations

import ctypes
import functools
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
import scipy
from scipy.sparse.linalg import ArpackNoConvergence, eigsh

from .errors import InvalidParameterError, NonConvergenceError

__all__ = ["top_eigenvalue"]

_DENSE_CUTOFF = 256
HERMITIAN_TOL = 1e-8


# (get, set) thread-count symbols: the scipy-openblas wheels' names (64-bit
# integer build in numpy, 32-bit in scipy), then plain OpenBLAS builds'.
_THREAD_SYMBOLS = tuple(
    (f"{prefix}get_num_threads{suffix}", f"{prefix}set_num_threads{suffix}")
    for prefix in ("scipy_openblas_", "openblas_") for suffix in ("64_", ""))


class _OpenBlas(NamedTuple):
    """Thread-count controls of one loaded OpenBLAS library."""
    name: str
    get_threads: Callable[[], int]
    set_threads: Callable[[int], None]


@functools.cache
def _openblas_libraries() -> tuple:
    """The OpenBLAS libraries bundled with numpy and scipy, looked up once.

    Empty when neither package ships one (a build against a system BLAS).
    """
    found = []
    for module in (np, scipy):
        libdir = Path(module.__file__).resolve().parent.parent / f"{module.__name__}.libs"
        for path in sorted(libdir.glob("*openblas*.so*")):
            try:
                lib = ctypes.CDLL(str(path))
            except OSError:
                continue
            for get_name, set_name in _THREAD_SYMBOLS:
                get = getattr(lib, get_name, None)
                set_ = getattr(lib, set_name, None)
                if get is not None and set_ is not None:
                    get.argtypes, get.restype = [], ctypes.c_int
                    set_.argtypes, set_.restype = [ctypes.c_int], None
                    found.append(_OpenBlas(path.name, get, set_))
                    break
    return tuple(found)


def _blas_threads() -> list:
    """File name and current thread count of each bundled OpenBLAS library."""
    return [{"library": lib.name, "threads": lib.get_threads()}
            for lib in _openblas_libraries()]


@contextmanager
def _single_thread_blas():
    """Run the block with every bundled OpenBLAS on one thread, then restore.

    Thread counts are process-wide, so calls from several Python threads at
    once may restore each other's counts out of order.
    """
    libs = _openblas_libraries()
    previous = [lib.get_threads() for lib in libs]
    for lib in libs:
        lib.set_threads(1)
    try:
        yield
    finally:
        for lib, count in zip(libs, previous):
            lib.set_threads(count)


def _check_hermitian(h: np.ndarray) -> np.ndarray:
    h = np.asarray(h)
    if h.ndim != 2 or h.shape[0] != h.shape[1] or h.shape[0] == 0:
        raise InvalidParameterError("matrix must be square and nonempty")
    with np.errstate(invalid="ignore"):     # Inf - Inf gives NaN
        err = np.abs(h - h.conj().T).max()
    # written so that a NaN deviation, from NaN or Inf entries, also fails
    if not err <= HERMITIAN_TOL:
        raise InvalidParameterError(
            "matrix is not Hermitian within 1e-8 or has non-finite entries")
    return h


def _start_vector(n: int) -> np.ndarray:
    # fixed, generic start: normalized alternating-sign ramp
    v = 1.0 + np.arange(n) % 3
    v[1::2] *= -1
    return v / np.linalg.norm(v)


def top_eigenvalue(h: np.ndarray, tol: float = 1e-8, maxiter: int = None) -> float:
    """Largest eigenvalue of a Hermitian matrix ``h`` within ``tol``.

    Tolerances of 1e-4 and looser run the Lanczos iteration in single
    precision; Hermitian eigenvalues are perturbed by at most the backward
    error norm, which stays two orders of magnitude below that tolerance.
    """
    with _single_thread_blas():
        h = _check_hermitian(h)
        n = h.shape[0]
        if n <= _DENSE_CUTOFF:
            return float(np.linalg.eigvalsh(h)[-1])
        v0 = _start_vector(n)
        if tol >= 1e-4:
            h = h.astype(np.complex64 if np.iscomplexobj(h) else np.float32)
            v0 = v0.astype(np.float32)
        try:
            vals = eigsh(h, k=1, which="LA", tol=tol, v0=v0,
                         maxiter=maxiter, return_eigenvectors=False)
        except ArpackNoConvergence as exc:
            raise NonConvergenceError(
                f"Lanczos did not converge within the iteration limit: {exc}") from exc
        return float(vals[0].real)
