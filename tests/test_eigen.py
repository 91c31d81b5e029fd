"""The one-thread OpenBLAS scope around the eigen solvers."""
from pathlib import Path

import numpy as np
import pytest
import scipy
from scipy.sparse.linalg import eigsh

from groupsynch import eigen
from groupsynch.errors import NonConvergenceError
from groupsynch.rng import make_rng

LIBS = eigen._openblas_libraries()
pytestmark = pytest.mark.skipif(not LIBS, reason="numpy and scipy bundle no OpenBLAS")


def _threads():
    return [lib.get_threads() for lib in LIBS]


@pytest.fixture
def two_threads():
    """Every bundled OpenBLAS on two threads, so a restore is observable."""
    original = _threads()
    for lib in LIBS:
        lib.set_threads(2)
    yield [2] * len(LIBS)
    for lib, count in zip(LIBS, original):
        lib.set_threads(count)


def _symmetric(n, seed):
    a = make_rng(seed, 0).standard_normal((n, n))
    return a + a.T


def test_lookup_finds_each_bundled_library():
    def ships_openblas(module):
        libdir = Path(module.__file__).resolve().parent.parent / f"{module.__name__}.libs"
        return any(libdir.glob("*openblas*.so*"))

    assert len(LIBS) == sum(ships_openblas(m) for m in (np, scipy))
    assert eigen._blas_threads() == [{"library": lib.name, "threads": lib.get_threads()}
                                     for lib in LIBS]


def test_scope_runs_one_thread_and_restores(two_threads):
    with eigen._single_thread_blas():
        assert _threads() == [1] * len(LIBS)
    assert _threads() == two_threads


@pytest.mark.parametrize("n", [100, 400])
def test_solvers_run_inside_the_scope(n, two_threads, monkeypatch):
    seen = []

    def recording(solver):
        def call(*args, **kwargs):
            seen.append(_threads())
            return solver(*args, **kwargs)
        return call

    monkeypatch.setattr(eigen, "eigsh", recording(eigsh))
    monkeypatch.setattr(np.linalg, "eigvalsh", recording(np.linalg.eigvalsh))
    h = _symmetric(n, 1)
    eigen.top_eigenvalue(h)
    eigen.top_eigenvalues(h, 2)
    assert seen == [[1] * len(LIBS)] * 2
    assert _threads() == two_threads


def test_scope_restores_after_nonconvergence(two_threads):
    with pytest.raises(NonConvergenceError):
        eigen.top_eigenvalue(_symmetric(300, 2), maxiter=1)
    assert _threads() == two_threads


def test_scope_does_nothing_without_a_library(two_threads, monkeypatch):
    monkeypatch.setattr(eigen, "_openblas_libraries", lambda: ())
    with eigen._single_thread_blas():
        assert _threads() == two_threads
    h = _symmetric(400, 3)
    assert eigen.top_eigenvalue(h) == pytest.approx(np.linalg.eigvalsh(h)[-1], abs=1e-6)


def test_lanczos_matches_unscoped_eigsh_bit_for_bit(two_threads):
    h = _symmetric(400, 4)
    direct = eigsh(h, k=1, which="LA", tol=1e-8, v0=eigen._start_vector(400),
                   return_eigenvectors=False)
    assert eigen.top_eigenvalue(h) == float(direct[0])
