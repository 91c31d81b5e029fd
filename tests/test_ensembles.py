import numpy as np
import pytest
from scipy import stats

from groupsynch.ensembles import (EnsembleKind, NoiseMatrix, sample, sample_gse,
                                  spectral_edge_check)
from groupsynch.errors import InvalidParameterError
from groupsynch.rng import make_rng


@pytest.mark.parametrize("tag", ["GOE", "GUE", "GSE"])
def test_hermitian_exact(tag):
    w = sample(EnsembleKind(tag, 40), seed=11).entries
    assert np.array_equal(w, w.conj().T)


def test_determinism():
    a = sample(EnsembleKind("GUE", 25), seed=5).entries
    b = sample(EnsembleKind("GUE", 25), seed=5).entries
    c = sample(EnsembleKind("GUE", 25), seed=6).entries
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_goe_entry_variances():
    # diagonal entries are iid N(0, 2); pool 1e4 of them across draws
    diags = np.concatenate([sample(EnsembleKind("GOE", 1000), seed=s).entries.diagonal()
                            for s in range(10)])
    assert diags.var() == pytest.approx(2.0, abs=0.1)
    w = sample(EnsembleKind("GOE", 1000), seed=21).entries
    off = w[np.triu_indices(1000, 1)]
    assert off.var() == pytest.approx(1.0, abs=0.02)


def test_gue_entry_variances():
    w = sample(EnsembleKind("GUE", 2000), seed=3).entries
    off = w[np.triu_indices(2000, 1)]
    assert np.mean(np.abs(off) ** 2) == pytest.approx(1.0, abs=0.05)
    assert off.real.var() == pytest.approx(0.5, abs=0.01)
    assert w.diagonal().real.var() == pytest.approx(1.0, abs=0.05)
    assert np.abs(w.diagonal().imag).max() == 0.0


def test_gse_block_structure_exact():
    w = sample(EnsembleKind("GSE", 8), seed=9).entries
    blk = w[0:2, 2:4]  # quaternionic block (1, 2)
    assert blk[1, 1] == blk[0, 0].conjugate()
    assert blk[1, 0] == -blk[0, 1].conjugate()
    diag = w[0:2, 0:2]
    assert diag[0, 0] == diag[1, 1]
    assert diag[0, 1] == 0 and diag[1, 0] == 0
    assert diag[0, 0].imag == 0


def test_gse_coefficient_variances():
    rng = make_rng(17, 0)
    coeffs = []
    for _ in range(300):
        w = sample_gse(6, rng)
        blk = w[0:2, 2:4]
        coeffs.extend([blk[0, 0].real, blk[0, 0].imag, blk[0, 1].real, blk[0, 1].imag])
    assert np.var(coeffs) == pytest.approx(0.25, rel=0.15)


def _gse_row_loop(n, rng):
    # reference: per row, draw a_i, then the four coefficients of each block right of it
    w = np.zeros((2 * n, 2 * n), dtype=complex)
    for i in range(n):
        a = np.sqrt(0.5) * rng.standard_normal()
        w[2 * i, 2 * i] = w[2 * i + 1, 2 * i + 1] = a
        if i + 1 < n:
            a4 = 0.5 * rng.standard_normal((n - i - 1, 4))
            top = a4[:, 0] + 1j * a4[:, 1]
            off = a4[:, 2] + 1j * a4[:, 3]
            cols = 2 * np.arange(i + 1, n)
            w[2 * i, cols] = top
            w[2 * i, cols + 1] = off
            w[2 * i + 1, cols] = -off.conj()
            w[2 * i + 1, cols + 1] = top.conj()
    iu = np.triu_indices(2 * n, 1)
    w[(iu[1], iu[0])] = w[iu].conj()
    return w


@pytest.mark.parametrize("n", [1, 2, 3, 17])
def test_gse_single_draw_matches_row_loop(n):
    got = sample_gse(n, make_rng(23, 2, n))
    want = _gse_row_loop(n, make_rng(23, 2, n))
    assert got.tobytes() == want.tobytes()


def _triu_scatter(tag, n, rng):
    # reference: strict upper triangle scattered at triu_indices, mirrored by
    # scattering again at the transposed indices (GSE: the row loop above)
    iu = np.triu_indices(n, 1)
    lower = (iu[1], iu[0])
    m = len(iu[0])
    if tag == "GOE":
        w = np.zeros((n, n))
        vals = rng.standard_normal(m)
        w[iu] = vals
        w[lower] = vals
        w[np.diag_indices(n)] = np.sqrt(2.0) * rng.standard_normal(n)
        return w
    if tag == "GUE":
        w = np.zeros((n, n), dtype=complex)
        vals = (rng.standard_normal(m) + 1j * rng.standard_normal(m)) / np.sqrt(2.0)
        w[iu] = vals
        w[lower] = vals.conj()
        w[np.diag_indices(n)] = rng.standard_normal(n)
        return w
    return _gse_row_loop(n, rng)


@pytest.mark.parametrize("n", [1, 2, 3, 255, 256, 257, 513])
@pytest.mark.parametrize("tag", ["GOE", "GUE", "GSE"])
def test_tiled_mirror_matches_triu_scatter(tag, n):
    # one tile, a full tile, a one-row edge tile and three tile rows
    got = sample(EnsembleKind(tag, n), seed=31).entries
    want = _triu_scatter(tag, n, make_rng(31, ("GOE", "GUE", "GSE").index(tag), n))
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_gse_kramers_pairing():
    w = sample(EnsembleKind("GSE", 30), seed=2).entries
    ev = np.linalg.eigvalsh(w)
    assert np.abs(ev[0::2] - ev[1::2]).max() < 1e-8


def test_offdiagonal_real_parts_gaussian_ks():
    # distributional check at significance 0.01 with a one-rerun budget
    def pvalue(seed):
        w = sample(EnsembleKind("GUE", 100), seed=seed).entries
        x = w[np.triu_indices(100, 1)].real
        return stats.kstest(x, "norm", args=(0.0, np.sqrt(0.5))).pvalue

    assert pvalue(1) > 0.01 or pvalue(2) > 0.01

    def pvalue_goe(seed):
        w = sample(EnsembleKind("GOE", 100), seed=seed).entries
        x = w[np.triu_indices(100, 1)]
        return stats.kstest(x, "norm", args=(0.0, 1.0)).pvalue

    assert pvalue_goe(1) > 0.01 or pvalue_goe(2) > 0.01


def test_spectral_edge_small():
    mean, se = spectral_edge_check(EnsembleKind("GUE", 300), trials=20, seed=4)
    assert mean == pytest.approx(2.0, abs=0.1)
    mean, se = spectral_edge_check(EnsembleKind("GSE", 150), trials=10, seed=5)
    assert mean == pytest.approx(2.0, abs=0.15)


def test_one_by_one_gue_edge_is_plain_gaussian():
    vals = [sample(EnsembleKind("GUE", 1), seed=s).entries[0, 0].real
            for s in range(10 ** 4)]
    assert np.mean(vals) == pytest.approx(0.0, abs=0.1)
    assert np.var(vals) == pytest.approx(1.0, rel=0.1)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("trials", [0, -1])
def test_spectral_edge_needs_a_trial(trials):
    with pytest.raises(InvalidParameterError) as info:
        spectral_edge_check(EnsembleKind("GUE", 5), trials=trials, seed=1)
    assert type(info.value) is InvalidParameterError


def test_invalid_kind():
    with pytest.raises(InvalidParameterError):
        EnsembleKind("GXE", 5)
    with pytest.raises(InvalidParameterError):
        EnsembleKind("GOE", 0)
    with pytest.raises(InvalidParameterError):
        EnsembleKind("GOE", 2.5)


def test_noise_matrix_metadata():
    kind = EnsembleKind("GSE", 4)
    nm = sample(kind, seed=77)
    assert isinstance(nm, NoiseMatrix)
    assert nm.kind == kind and nm.seed == 77
    assert nm.entries.shape == (8, 8)
