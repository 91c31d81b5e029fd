"""The one-thread OpenBLAS scope around every BLAS-reaching public call."""
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
import scipy
from scipy.sparse.linalg import eigsh

from groupsynch import eigen, ldlr, models
from groupsynch.errors import NonConvergenceError
from groupsynch.groups import build_catalog
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
    eigen.top_eigenvalue(h, tol=1e-4)
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


def test_nested_scopes_restore_only_on_the_outermost_exit(two_threads):
    with eigen._single_thread_blas():
        with eigen._single_thread_blas():
            assert _threads() == [1] * len(LIBS)
        assert _threads() == [1] * len(LIBS)
        with eigen._single_thread_blas():
            pass
        assert _threads() == [1] * len(LIBS)
    assert _threads() == two_threads


def test_overlapping_scopes_in_two_threads(two_threads):
    # a enters, b enters, a leaves while b is still inside, then b leaves
    a_in, b_in, a_out = threading.Event(), threading.Event(), threading.Event()
    seen = {}

    def first():
        with eigen._single_thread_blas():
            a_in.set()
            b_in.wait(10)
            seen["a"] = _threads()
        a_out.set()

    def second():
        a_in.wait(10)
        with eigen._single_thread_blas():
            b_in.set()
            a_out.wait(10)
            seen["b"] = _threads()

    workers = [threading.Thread(target=first), threading.Thread(target=second)]
    for w in workers:
        w.start()
    for w in workers:
        w.join(10)
    assert not any(w.is_alive() for w in workers)
    assert seen == {"a": [1] * len(LIBS), "b": [1] * len(LIBS)}
    assert _threads() == two_threads


def test_scope_depth_survives_many_threads(two_threads):
    # more threads than cores, switching often: a lost depth update would
    # restore two threads inside a scope or leave one thread set at the end
    bad = []

    def churn():
        for _ in range(200):
            with eigen._single_thread_blas():
                with eigen._single_thread_blas():
                    if _threads() != [1] * len(LIBS):
                        bad.append(_threads())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=churn) for _ in range(6)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert bad == [] and eigen._SCOPE.depth == 0
    assert _threads() == two_threads


def _recording(seen, fn):
    def call(*args, **kwargs):
        seen.append(_threads())
        return fn(*args, **kwargs)
    return call


def test_channel_tiles_run_inside_the_scope(two_threads, monkeypatch):
    seen = []

    def tiles(n):
        for tile in eigen._tiles(n):
            seen.append(_threads())
            yield tile

    monkeypatch.setattr(models, "_tiles", tiles)
    group, full = build_catalog("quaternion8")
    models.sample_gsynch_circle(2, 1.3, 300, seed=1)
    models.sample_gsynch_cyclic(4, 1.3, 300, seed=1)
    models.sample_gsynch_group(group, full.nonredundant(), 1.3, 150, seed=1)
    # three tiles per order-300 channel, one per order-150 channel
    assert seen == [[1] * len(LIBS)] * (3 * 2 + 3 * 2 + 3 + 1 * 3)
    assert _threads() == two_threads


def test_change_of_basis_and_overlaps_run_inside_the_scope(two_threads, monkeypatch):
    seen = []
    monkeypatch.setattr(np, "tensordot", _recording(seen, np.tensordot))
    group, full = build_catalog("dihedral(3)")
    obs = models.sample_indicator(group, 20, 1.0, seed=1)
    models.indicator_to_canonical(obs, group, full)
    assert len(seen) == 2 and _threads() == two_threads       # the two nontrivial irreps
    irreps = full.nonredundant()
    ldlr.group_overlap_stat(group, irreps, np.ones((5, group.order)))
    ldlr.sample_overlaps(models.Model("group", snr=1.0, group=group, irreps=irreps), 10, 100, seed=1)
    assert seen == [[1] * len(LIBS)] * (2 + 2 * len(irreps))
    assert _threads() == two_threads
