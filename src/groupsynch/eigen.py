"""Top-eigenvalue computation for Hermitian matrices.

Small matrices go through the dense LAPACK solver; large ones through
Lanczos (ARPACK) with a fixed deterministic start vector, so results are
reproducible run to run.

Both paths run with the bundled OpenBLAS libraries limited to one thread,
and so does every other public call of the package that reaches BLAS: the
three observation samplers (their per-tile signal products), the indicator
change of basis and the group overlap of the Monte-Carlo route.  ARPACK's
matvecs, the small dense solves and the tile products are too short to
share across cores: on two threads they spend most of their time
synchronising (about 20x slower at order 400) and burn a second core for
nothing.  One thread also keeps results from depending on the process's
thread setting, since threaded complex products can round differently in
the last bit.

The limit is one reentrant scope, :func:`_single_thread_blas`: a depth
count under a lock, shared by every Python thread because the thread counts
are process-wide.  The outermost entry saves the counts and sets one thread;
the outermost exit restores them.  Nested public calls therefore pay for the
ctypes calls once, and overlapping calls from several Python threads keep
one thread until the last of them leaves.
"""
from __future__ import annotations

import ctypes
import functools
import threading
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
import scipy
from scipy.sparse.linalg import ArpackNoConvergence, eigsh

from ._rules import NONNEGATIVE, SIZE
from .errors import InvalidParameterError, NonConvergenceError

__all__ = ["top_eigenvalue"]

_DENSE_CUTOFF = 256
HERMITIAN_TOL = 1e-8
_TILE = 256     # edge of the square tiles that channels are built and checked in


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


class _ScopeState:
    """Nesting depth of the one-thread scope and the counts its outermost entry saved."""

    def __init__(self):
        self.lock = threading.Lock()
        self.depth = 0
        self.saved = []


_SCOPE = _ScopeState()


@contextmanager
def _single_thread_blas():
    """Run the block with every bundled OpenBLAS on one thread, then restore.

    Reentrant and thread-safe: only the outermost of any nested or
    overlapping entries, in any Python thread, saves the thread counts and
    sets one thread, and only the last exit restores them.  Also usable as
    a decorator, ``@_single_thread_blas()``.
    """
    with _SCOPE.lock:
        if _SCOPE.depth == 0:
            libs = _openblas_libraries()
            _SCOPE.saved = [(lib, lib.get_threads()) for lib in libs]
            for lib in libs:
                lib.set_threads(1)
        _SCOPE.depth += 1
    try:
        yield
    finally:
        with _SCOPE.lock:
            _SCOPE.depth -= 1
            if _SCOPE.depth == 0:
                for lib, count in _SCOPE.saved:
                    lib.set_threads(count)
                _SCOPE.saved = []


def _tiles(n: int):
    """(rows, cols) slice pairs of the upper block triangle of an n x n matrix.

    Tiles are _TILE square (smaller at the right and bottom edges), row by
    row, diagonal tiles included (rows == cols).
    """
    edges = range(0, n, _TILE)
    for i in edges:
        rows = slice(i, min(i + _TILE, n))
        for j in edges[i // _TILE:]:
            yield rows, slice(j, min(j + _TILE, n))


def _check_hermitian(h: np.ndarray) -> np.ndarray:
    """``h`` as an array, after checking max |h - h*| <= HERMITIAN_TOL.

    Each upper tile h[I, J] is compared with h[J, I]* in turn, so no full
    transposed copy is made; the first tile whose deviation is above the
    tolerance or NaN (from NaN or Inf entries) raises.
    """
    h = np.asarray(h)
    if h.ndim != 2 or h.shape[0] != h.shape[1] or h.shape[0] == 0:
        raise InvalidParameterError("matrix must be square and nonempty")
    for rows, cols in _tiles(h.shape[0]):
        with np.errstate(invalid="ignore"):     # Inf - Inf gives NaN
            err = np.abs(h[rows, cols] - h[cols, rows].conj().T).max()
        # written so that a NaN deviation also fails
        if not err <= HERMITIAN_TOL:
            raise InvalidParameterError(
                "matrix is not Hermitian within 1e-8 or has non-finite entries")
    return h


def _start_vector(n: int) -> np.ndarray:
    # fixed, generic start: normalized alternating-sign ramp
    v = 1.0 + np.arange(n) % 3
    v[1::2] *= -1
    return v / np.linalg.norm(v)


@_single_thread_blas()
def top_eigenvalue(h: np.ndarray, tol: float = 1e-8, maxiter: int = None) -> float:
    """Largest eigenvalue of a Hermitian matrix ``h`` within ``tol``.

    Tolerances of 1e-4 and looser run the Lanczos iteration in single
    precision; Hermitian eigenvalues are perturbed by at most the backward
    error norm, which stays two orders of magnitude below that tolerance.
    ``tol`` must be finite and nonnegative (0 asks ARPACK for machine
    precision) and ``maxiter``, when given, an integer >= 1.
    """
    NONNEGATIVE.check("tol", tol)
    if maxiter is not None:
        SIZE.check("maxiter", maxiter)
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
