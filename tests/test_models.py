import hashlib
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from groupsynch.errors import InvalidParameterError
from groupsynch.groups import (build_catalog, build_cyclic, build_quaternion8,
                               regular_rep_unitary)
from groupsynch.models import (Model, indicator_to_canonical,
                               sample_gsynch_circle, sample_gsynch_cyclic,
                               sample_gsynch_group, sample_indicator,
                               sample_signal)
from groupsynch.eigen import top_eigenvalue


def test_signal_uniformity_cyclic():
    sv = sample_signal(("cyclic", 3), 10 ** 5, seed=1)
    freqs = np.bincount(sv.values, minlength=3) / 10 ** 5
    assert np.abs(freqs - 1 / 3).max() < 0.01


def test_signal_circle_rotation_symmetry():
    sv = sample_signal("circle", 10 ** 5, seed=2)
    assert abs(sv.values.mean().real) < 0.02
    assert abs(sv.values.mean().imag) < 0.02
    assert np.abs(np.abs(sv.values) - 1.0).max() < 1e-12


def test_signal_haar_uniformity_chi2():
    group, _ = build_quaternion8()
    sv = sample_signal(("haar", group), 8 * 10 ** 4, seed=3)
    counts = np.bincount(sv.values, minlength=8)
    p = stats.chisquare(counts).pvalue
    assert p > 0.01


def test_circle_null_is_pure_noise():
    obs = sample_gsynch_circle(2, 0.0, 40, seed=4)
    for f in obs.freqs:
        assert f.snr == 0.0
        # mean entry magnitude matches GUE/sqrt(n) scaling
        off = f.matrix[np.triu_indices(40, 1)]
        assert np.mean(np.abs(off) ** 2) == pytest.approx(1 / 40, rel=0.2)


def test_circle_n1_single_frequency():
    vals = [sample_gsynch_circle(1, 1.0, 1, seed=s).freqs[0].matrix[0, 0]
            for s in range(3000)]
    vals = np.array(vals)
    assert np.abs(vals.imag).max() == 0.0  # x x* = 1 plus real diagonal noise
    assert vals.real.mean() == pytest.approx(1.0, abs=0.1)
    assert vals.real.var() == pytest.approx(1.0, rel=0.15)


def test_circle_bbp_eigenvalue():
    tops = [top_eigenvalue(sample_gsynch_circle(1, 2.0, 1000, seed=s).freqs[0].matrix)
            for s in range(20)]
    assert np.mean(tops) == pytest.approx(2.5, abs=0.1)


def test_cyclic_l2_real_symmetric_pm1():
    obs = sample_gsynch_cyclic(2, 1.0, 30, seed=5)
    assert len(obs.freqs) == 1
    y = obs.freqs[0].matrix
    assert y.dtype == np.float64
    sig = sample_signal(("cyclic", 2), 30, seed=5)
    x = np.where(sig.values == 0, 1.0, -1.0)
    signal_part = np.outer(x, x) / 30
    # the planted part has +-1/n entries
    assert np.allclose(np.abs(signal_part), 1 / 30)


def test_cyclic_l4_top_frequency_real():
    obs = sample_gsynch_cyclic(4, 1.0, 25, seed=6)
    assert [f.type_tag for f in obs.freqs] == ["complex", "real"]
    assert np.isrealobj(obs.freqs[1].matrix)


def test_cyclic_l3_entries_are_root_ratios():
    obs = sample_gsynch_cyclic(3, 1.0, 12, seed=7)
    assert len(obs.freqs) == 1
    sig = sample_signal(("cyclic", 3), 12, seed=7)
    roots = np.exp(2j * np.pi * np.arange(3) / 3)
    x = roots[sig.values]
    outer = np.outer(x, x.conj())
    ratios = np.unique(np.round(outer.reshape(-1), 9))
    assert len(ratios) <= 3  # cube roots of unity only


def test_frequency_count_floor_l_over_2():
    for L in range(2, 9):
        obs = sample_gsynch_cyclic(L, 1.0, 6, seed=1)
        assert len(obs.freqs) == L // 2
        real_tags = [f.type_tag == "real" for f in obs.freqs]
        assert sum(real_tags) == (1 if L % 2 == 0 else 0)


def test_group_sampler_matches_cyclic_bitwise():
    for L in (3, 4, 5):
        via_cyclic = sample_gsynch_cyclic(L, 0.8, 15, seed=11)
        via_group = Model.from_name(f"group(cyclic({L}))", snr=0.8).sample(15, seed=11)
        assert len(via_cyclic.freqs) == len(via_group.freqs)
        for a, b in zip(via_cyclic.freqs, via_group.freqs):
            assert np.array_equal(np.asarray(a.matrix, dtype=complex),
                                  np.asarray(b.matrix, dtype=complex))


def test_group_sampler_n1_identity_block():
    group, full = build_catalog("dihedral(3)")
    obs = sample_gsynch_group(group, full.nonredundant(), [0.0, 1.0], 1, seed=8)
    two_dim = obs.freqs[1]
    # signal block of the 2-dim channel is rho(u) rho(u)* = I; check via mean
    # over draws that the diagonal concentrates at 1
    diags = []
    for s in range(400):
        o = sample_gsynch_group(group, full.nonredundant(), [0.0, 1.0], 1, seed=s)
        diags.append(np.asarray(o.freqs[1].matrix).diagonal().real)
    assert np.mean(diags) == pytest.approx(1.0, abs=0.1)
    assert two_dim.matrix.shape == (2, 2)


def test_group_sampler_quaternionic_channel_shape():
    group, full = build_quaternion8()
    obs = sample_gsynch_group(group, full.nonredundant(), 0.5, 4, seed=9)
    quat = obs.freqs[-1]
    assert quat.type_tag == "quaternionic"
    assert quat.dim == 1
    assert quat.matrix.shape == (8, 8)  # 2 n d x 2 n d with n=4, d=1
    ev = np.linalg.eigvalsh(quat.matrix)
    assert np.abs(ev[0::2] - ev[1::2]).max() < 1e-8


def test_observations_hermitian_exact():
    obs = sample_gsynch_circle(3, [0.5, 1.0, 2.0], 20, seed=10)
    for f in obs.freqs:
        m = np.asarray(f.matrix)
        assert np.array_equal(m, m.conj().T)
    group, full = build_catalog("dihedral(4)")
    obs = sample_gsynch_group(group, full.nonredundant(), 0.7, 5, seed=11)
    for f in obs.freqs:
        m = np.asarray(f.matrix, dtype=complex)
        assert np.array_equal(m, m.conj().T)


def test_offdiagonal_entry_mean_vanishes():
    # nontrivial channel, k != j: E Y_kj = (snr/n) E rho(u_k) rho(u_j)^* = 0
    acc = np.zeros((), dtype=complex)
    for s in range(300):
        obs = sample_gsynch_cyclic(3, 1.0, 8, seed=s)
        acc += obs.freqs[0].matrix[0, 1]
    assert abs(acc / 300) < 0.05


# sha256 prefixes (12 hex digits) of every channel's bytes at seed 2024, taken
# from the full-matrix construction (one n x n outer product, symmetrized, plus
# the scaled noise); the per-tile products, the in-place signal add and the
# tiled mirror must reproduce them bit for bit
_CHANNEL_PINS = {
    ('circle:1', 0.0, 1): 'b54744d79149',
    ('circle:1', 0.0, 17): 'bef2fc5c2d09',
    ('circle:1', 0.0, 256): '7c5b5538886c',
    ('circle:1', 0.0, 257): '7c2fb33bfbd5',
    ('circle:1', 0.0, 300): '9578fda1921e',
    ('circle:1', 1.3, 1): 'a0657bb6e391',
    ('circle:1', 1.3, 17): '90c27a0dddf5',
    ('circle:1', 1.3, 256): 'cd013af10e1e',
    ('circle:1', 1.3, 257): '746b019b6380',
    ('circle:1', 1.3, 300): '0eb23e1408cd',
    ('circle:3', 0.0, 1): 'b54744d79149 5cff4403eaea 191b48c0e692',
    ('circle:3', 0.0, 17): 'bef2fc5c2d09 13aa051354a4 4e5274f7aa50',
    ('circle:3', 0.0, 256): '7c5b5538886c ff699a64c079 5cb1f22ee67b',
    ('circle:3', 0.0, 257): '7c2fb33bfbd5 4e2981b9296d 6b86abb55152',
    ('circle:3', 0.0, 300): '9578fda1921e 42060315ff59 385ca9358aae',
    ('circle:3', 1.3, 1): 'a0657bb6e391 a18a29f3cdf2 744c5211dd45',
    ('circle:3', 1.3, 17): '90c27a0dddf5 0e9285d1559c 887646ddc8bc',
    ('circle:3', 1.3, 256): 'cd013af10e1e 3ac9a987686d 0d2291eaf2ce',
    ('circle:3', 1.3, 257): '746b019b6380 e6256e2f8237 df0b9d71795d',
    ('circle:3', 1.3, 300): '0eb23e1408cd 6f67209f6ba7 bb0fa364407b',
    ('cyclic:2', 0.0, 1): '4ff920f32fee',
    ('cyclic:2', 0.0, 17): '1014f74944f4',
    ('cyclic:2', 0.0, 256): 'be52eb7e0bf2',
    ('cyclic:2', 0.0, 257): '04f7e281f199',
    ('cyclic:2', 0.0, 300): '7112825732aa',
    ('cyclic:2', 1.3, 1): 'f4ff5d775aed',
    ('cyclic:2', 1.3, 17): 'd635c534cf27',
    ('cyclic:2', 1.3, 256): '98d1c51b49f0',
    ('cyclic:2', 1.3, 257): 'd76c272fecbb',
    ('cyclic:2', 1.3, 300): '39531987e603',
    ('cyclic:4', 0.0, 1): 'b54744d79149 c6f970e57ac8',
    ('cyclic:4', 0.0, 17): 'bef2fc5c2d09 61e83e62373b',
    ('cyclic:4', 0.0, 256): '7c5b5538886c 4208ffcd00fc',
    ('cyclic:4', 0.0, 257): '7c2fb33bfbd5 f259b00b471a',
    ('cyclic:4', 0.0, 300): '9578fda1921e e096bd2cd9e2',
    ('cyclic:4', 1.3, 1): 'a0657bb6e391 2be1a22d54d7',
    ('cyclic:4', 1.3, 17): 'ef2b53ac71b9 42446be09fa1',
    ('cyclic:4', 1.3, 256): 'd3bbf89035ce 9ba397196138',
    ('cyclic:4', 1.3, 257): '3b082b6be3fd d690468c3e79',
    ('cyclic:4', 1.3, 300): 'a64199f4c3ca 4562413b1f31',
    ('cyclic:5', 0.0, 1): 'b54744d79149 5cff4403eaea',
    ('cyclic:5', 0.0, 17): 'bef2fc5c2d09 13aa051354a4',
    ('cyclic:5', 0.0, 256): '7c5b5538886c ff699a64c079',
    ('cyclic:5', 0.0, 257): '7c2fb33bfbd5 4e2981b9296d',
    ('cyclic:5', 0.0, 300): '9578fda1921e 42060315ff59',
    ('cyclic:5', 1.3, 1): 'a0657bb6e391 e0f1eabe9a81',
    ('cyclic:5', 1.3, 17): '6367718ea799 f93b3a1163fa',
    ('cyclic:5', 1.3, 256): '95d569d9cb49 037cec7bf258',
    ('cyclic:5', 1.3, 257): '2a243eec898a a9726737b29d',
    ('cyclic:5', 1.3, 300): '728a409f22b7 9b9415365a2a',
    ('group:quaternion8', 0.0, 1): '4ff920f32fee c6f970e57ac8 f3e85e063acf f782cb39666a',
    ('group:quaternion8', 0.0, 17): '1014f74944f4 61e83e62373b 0aaf0f33e8a2 2ff6df4f7c26',
    ('group:quaternion8', 0.0, 256): 'be52eb7e0bf2 4208ffcd00fc 2f2d29e11ebe d3f848ff0d29',
    ('group:quaternion8', 0.0, 257): '04f7e281f199 f259b00b471a 1030b43ebcc8 a89dcf226cde',
    ('group:quaternion8', 0.0, 300): '7112825732aa e096bd2cd9e2 0b8c86a12912 be8dfad580b2',
    ('group:quaternion8', 1.3, 1): 'f4ff5d775aed 2be1a22d54d7 ab746f767d32 bb7157df2902',
    ('group:quaternion8', 1.3, 17): 'd635c534cf27 42446be09fa1 bdda61b38d77 a671bd6978ca',
    ('group:quaternion8', 1.3, 256): '98d1c51b49f0 9ba397196138 ba1796c24787 2b3c49ba202c',
    ('group:quaternion8', 1.3, 257): 'd76c272fecbb d690468c3e79 f7912af18030 05d6bbf29748',
    ('group:quaternion8', 1.3, 300): '39531987e603 4562413b1f31 fe777322130e faf9669e9dc3',
    ('group:dihedral(3)', 0.0, 1): '4ff920f32fee 3f9b0605435b',
    ('group:dihedral(3)', 0.0, 17): '1014f74944f4 a7321776a18b',
    ('group:dihedral(3)', 0.0, 256): 'be52eb7e0bf2 3d5081073757',
    ('group:dihedral(3)', 0.0, 257): '04f7e281f199 abf6d1355ad2',
    ('group:dihedral(3)', 0.0, 300): '7112825732aa 03342e70d26f',
    ('group:dihedral(3)', 1.3, 1): 'f4ff5d775aed c8bfe3cc7e80',
    ('group:dihedral(3)', 1.3, 17): 'd635c534cf27 464e8db1d54d',
    ('group:dihedral(3)', 1.3, 256): '98d1c51b49f0 a8d5d1265860',
    ('group:dihedral(3)', 1.3, 257): 'd76c272fecbb c00c4ac9db2a',
    ('group:dihedral(3)', 1.3, 300): '39531987e603 119a345a7fa8',
    ('group:cyclic(5)', 0.0, 1): 'b54744d79149 5cff4403eaea',
    ('group:cyclic(5)', 0.0, 17): 'bef2fc5c2d09 13aa051354a4',
    ('group:cyclic(5)', 0.0, 256): '7c5b5538886c ff699a64c079',
    ('group:cyclic(5)', 0.0, 257): '7c2fb33bfbd5 4e2981b9296d',
    ('group:cyclic(5)', 0.0, 300): '9578fda1921e 42060315ff59',
    ('group:cyclic(5)', 1.3, 1): 'a0657bb6e391 e0f1eabe9a81',
    ('group:cyclic(5)', 1.3, 17): '6367718ea799 f93b3a1163fa',
    ('group:cyclic(5)', 1.3, 256): '95d569d9cb49 037cec7bf258',
    ('group:cyclic(5)', 1.3, 257): '2a243eec898a a9726737b29d',
    ('group:cyclic(5)', 1.3, 300): '728a409f22b7 9b9415365a2a',
    ('circle:1', 0.0, 2000): '171852d0b7af',
    ('circle:1', 1.3, 2000): '539dd94a1e34',
    ('cyclic:4', 0.0, 400): '761173b20790 0cb13639c80e',
    ('cyclic:4', 1.3, 400): 'ac6cc1717b8f af35d3d281ec',
    # three tile rows: off-diagonal tiles (0, 2) away from the diagonal
    ('circle:1', 0.0, 513): '1d0bf6492f75',
    ('circle:1', 1.3, 513): '9a741d7701a1',
    ('cyclic:4', 0.0, 513): '1d0bf6492f75 907e306a0942',
    ('cyclic:4', 1.3, 513): '3be94e19abe7 4a8ab846c4d8',
    ('group:quaternion8', 0.0, 513): '8003c6979893 907e306a0942 21c8ea3e8822 61bbbae52fcc',
    ('group:quaternion8', 1.3, 513): '4f5e0b0fe721 4a8ab846c4d8 a8553781f935 71bfa89169b3',
}


def _pinned_sample(name, lam, n):
    kind, arg = name.split(":")
    if kind == "circle":
        return sample_gsynch_circle(int(arg), lam, n, seed=2024)
    if kind == "cyclic":
        return sample_gsynch_cyclic(int(arg), lam, n, seed=2024)
    group, full = build_catalog(arg)
    return sample_gsynch_group(group, full.nonredundant(), lam, n, seed=2024)


@pytest.mark.parametrize("case", list(_CHANNEL_PINS))
def test_channels_are_pinned_bitwise(case):
    obs = _pinned_sample(*case)
    got = " ".join(hashlib.sha256(f.matrix.tobytes()).hexdigest()[:12] for f in obs.freqs)
    assert got == _CHANNEL_PINS[case]


def test_order_2000_channel_memory():
    # noise, its in-place scaling and the signal tiles, then the single-precision
    # Lanczos copy: no n x n temporary beyond the observation and that copy
    tracemalloc.start()
    try:
        obs = sample_gsynch_circle(1, 1.5, 2000, seed=1)
        top_eigenvalue(obs.freqs[0].matrix, 1e-4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * 2000 * 2000 * 16


def test_snr_validation():
    with pytest.raises(InvalidParameterError):
        sample_gsynch_circle(2, [-0.5, 1.0], 10, seed=0)
    with pytest.raises(InvalidParameterError):
        sample_gsynch_circle(2, [1.0, 1.0, 1.0], 10, seed=0)
    group, full = build_cyclic(4)
    with pytest.raises(InvalidParameterError):
        sample_gsynch_group(group, full, 1.0, 10, seed=0)  # full list rejected


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("snr", [np.nan, np.inf, -np.inf, [1.0, np.nan]])
def test_snr_must_be_finite(snr):
    group, full = build_catalog("dihedral(3)")
    samplers = [lambda: sample_gsynch_circle(2, snr, 5, seed=1),
                lambda: sample_gsynch_cyclic(4, snr, 5, seed=1),
                lambda: sample_gsynch_group(group, full.nonredundant(), snr, 5, seed=1)]
    for draw in samplers:
        with pytest.raises(InvalidParameterError):
            draw()
    with pytest.raises(InvalidParameterError):
        Model("circle", L=1, snr=np.nan).sample(5, 1)


# ---------------------------------------------------------------------------
# Noisy indicator observations
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("gamma", [np.nan, np.inf, -0.5])
def test_indicator_rejects_bad_gamma(gamma):
    group, _ = build_cyclic(3)
    with pytest.raises(InvalidParameterError):
        sample_indicator(group, 4, gamma, seed=1)


@pytest.mark.parametrize("name", ["dihedral(3)", "quaternion8"])
def test_indicator_plants_the_meshgrid_bump(name):
    group, _ = build_catalog(name)
    n, gamma, seed = 9, 1.7, 4
    u = sample_signal(("haar", group), n, seed=seed).values
    want = sample_indicator(group, n, 0.0, seed=seed).scores
    rel = group.mul[np.ix_(u, group.inverse[u])]
    k_idx, j_idx = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    want[k_idx, j_idx, rel] += gamma
    obs = sample_indicator(group, n, gamma, seed=seed)
    assert np.array_equal(obs.signal, u)
    assert np.array_equal(obs.scores, want)


def test_indicator_null_moments():
    group, _ = build_cyclic(3)
    obs = sample_indicator(group, 6, 0.0, seed=12)
    z = obs.scores.reshape(-1)
    assert np.mean(np.abs(z) ** 2) == pytest.approx(1.0, rel=0.1)
    assert abs(z.mean()) < 0.05


def test_indicator_self_pair_mean():
    group, _ = build_cyclic(3)
    vals = [sample_indicator(group, 2, 4.0, seed=s).scores[0, 0, group.identity]
            for s in range(500)]
    assert np.mean(np.real(vals)) == pytest.approx(4.0, abs=0.2)


def test_indicator_argmax_recovery():
    group, _ = build_cyclic(4)
    hits = 0
    trials = 400
    for s in range(trials):
        obs = sample_indicator(group, 2, 10.0, seed=s)
        rel = group.mul[obs.signal[0], group.inverse[obs.signal[1]]]
        hits += int(np.argmax(obs.scores[0, 1].real) == rel)
    assert hits / trials >= 0.99


@pytest.mark.parametrize("name", ["cyclic(3)", "cyclic(4)", "dihedral(3)"])
def test_indicator_to_canonical_zero_noise(name):
    group, full = build_catalog(name)
    L = group.order
    n = 7
    snr = 0.9
    gamma = snr * np.sqrt(L / n)
    signal = sample_signal(("haar", group), n, seed=13)
    scores = np.zeros((n, n, L), dtype=complex)
    for k in range(n):
        for j in range(n):
            rel = group.mul[signal.values[k], group.inverse[signal.values[j]]]
            scores[k, j, rel] = gamma
    from groupsynch.models import IndicatorObservation
    clean = IndicatorObservation(scores, gamma, signal.values, n, 13)
    canon = indicator_to_canonical(clean, group, full)
    nontrivial = [r for r in full if not r.is_trivial]
    assert len(canon.freqs) == len(nontrivial)
    for freq, irrep in zip(canon.freqs, nontrivial):
        assert freq.snr == pytest.approx(snr, abs=1e-12)
        d = irrep.dim
        for a in range(n):
            for b in range(n):
                blk = freq.matrix[a * d:(a + 1) * d, b * d:(b + 1) * d]
                want = (snr / n) * irrep.matrices[signal.values[a]] @ \
                    irrep.matrices[group.inverse[signal.values[b]]]
                assert np.abs(blk - want).max() < 1e-10


def test_indicator_cross_irrep_blocks_carry_no_signal():
    group, full = build_catalog("dihedral(3)")
    from groupsynch.groups import regular_rep_unitary
    U = regular_rep_unitary(group, full)
    gamma = 1.3
    rel = group.mul[2, group.inverse[5]]
    ytilde = np.zeros((6, 6), dtype=complex)
    ts_inv = group.mul[:, group.inverse]
    z = np.zeros(6, dtype=complex)
    z[rel] = gamma
    ytilde = z[ts_inv]
    M = U @ ytilde @ U.conj().T
    # zero outside the block-diagonal structure of the regular representation
    off = 0
    for irrep in full:
        d = irrep.dim
        for _ in range(d):
            M[off:off + d, off:off + d] = 0
            off += d
    assert np.abs(M).max() < 1e-10


def test_indicator_to_canonical_is_linear():
    group, full = build_cyclic(3)
    a = sample_indicator(group, 4, 0.0, seed=1)
    b = sample_indicator(group, 4, 0.0, seed=2)
    from groupsynch.models import IndicatorObservation
    summed = IndicatorObservation(a.scores + b.scores, 0.0, a.signal, 4, None)
    ca = indicator_to_canonical(a, group, full)
    cb = indicator_to_canonical(b, group, full)
    cs = indicator_to_canonical(summed, group, full)
    for fa, fb, fs in zip(ca.freqs, cb.freqs, cs.freqs):
        assert np.abs((fa.matrix + fb.matrix) - fs.matrix).max() < 1e-12


def _indicator_pairwise(obs, group, full):
    # reference: conjugate each pair's L x L table by the irrep's rows of the unitary
    U = regular_rep_unitary(group, full)
    n, L = obs.n, group.order
    ts_inv = group.mul[:, group.inverse]
    out, off = [], 0
    for irrep in full:
        d = irrep.dim
        rows = U[off:off + d]
        off += d * d
        if irrep.is_trivial:
            continue
        y = np.zeros((n * d, n * d), dtype=complex)
        for k in range(n):
            for j in range(k, n):
                block = rows @ obs.scores[k, j][ts_inv] @ rows.conj().T / np.sqrt(n * L)
                if j == k:
                    block = 0.5 * (block + block.conj().T)
                y[k * d:(k + 1) * d, j * d:(j + 1) * d] = block
                y[j * d:(j + 1) * d, k * d:(k + 1) * d] = block.conj().T
        out.append(y)
    return out


@pytest.mark.parametrize("name", ["cyclic(5)", "dihedral(3)", "dihedral(4)", "quaternion8"])
@pytest.mark.parametrize("n", [1, 2, 9])
def test_indicator_to_canonical_matches_pairwise_loop(name, n):
    group, full = build_catalog(name)
    obs = sample_indicator(group, n, 0.7, seed=5)
    got = indicator_to_canonical(obs, group, full).freqs
    want = _indicator_pairwise(obs, group, full)
    assert len(got) == len(want)
    for f, y in zip(got, want):
        assert np.array_equal(f.matrix, f.matrix.conj().T)
        assert np.abs(f.matrix - y).max() < 1e-14


def test_indicator_to_canonical_memory():
    # an (n, n, L, L) temporary alone would take L times the score tables
    group, full = build_catalog("quaternion8")
    obs = sample_indicator(group, 200, 0.5, seed=2)
    tracemalloc.start()
    try:
        indicator_to_canonical(obs, group, full)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * obs.scores.nbytes < group.order * obs.scores.nbytes


def test_indicator_null_block_variance():
    group, full = build_cyclic(3)
    n = 30
    sq = []
    for s in range(6):
        obs = sample_indicator(group, n, 0.0, seed=s)
        canon = indicator_to_canonical(obs, group, full)
        f = canon.freqs[0]
        iu = np.triu_indices(n, 1)
        blocks = f.matrix.reshape(n, 1, n, 1).transpose(0, 2, 1, 3)
        sq.append(np.abs(blocks[iu]) ** 2)
    mean_sq = float(np.mean(np.concatenate(sq)))
    assert mean_sq == pytest.approx(1.0 / n, rel=0.05)


def test_model_wrapper():
    m = Model("cyclic", L=4, snr=0.5)
    obs = m.sample(10, seed=3)
    assert obs.n == 10 and len(obs.freqs) == 2
    assert m.null().snr == 0.0
    with pytest.raises(InvalidParameterError):
        Model("cyclic", L=1)
    with pytest.raises(InvalidParameterError):
        Model("group")


def _catalog_model(name, snr=0.0):
    group, full = build_catalog(name)
    return Model("group", snr=snr, group=group, irreps=full.nonredundant())


def _assert_same_model(a, b):
    assert (a.kind, a.L, a.snr, a.name) == (b.kind, b.L, b.snr, b.name)
    if a.kind == "group":
        assert np.array_equal(a.group.mul, b.group.mul)
        assert [r.name for r in a.irreps] == [r.name for r in b.irreps]
        for r, q in zip(a.irreps, b.irreps):
            assert np.array_equal(r.matrices, q.matrices)


@pytest.mark.parametrize("model", [
    *(Model("circle", L=L) for L in (1, 2, 3)),
    *(Model("cyclic", L=L, snr=0.4) for L in range(2, 7)),
    *(_catalog_model(name) for name in ("cyclic(5)", "dihedral(3)", "dihedral(4)",
                                        "quaternion8")),
], ids=lambda m: m.name)
def test_from_name_inverts_name(model):
    _assert_same_model(Model.from_name(model.name, snr=model.snr), model)


def test_from_name_reads_the_flag_form():
    assert Model.from_name("circle", 3) == Model("circle", L=3)
    assert Model.from_name("cyclic", 4, 0.5) == Model("cyclic", L=4, snr=0.5)
    assert Model.from_name("cyclic(L=4)", 7) == Model("cyclic", L=4)   # only bare kinds read L
    _assert_same_model(Model.from_name("dihedral(3)", 2), _catalog_model("dihedral(3)"))
    for name in ("cyclic", "circle(L=0)", "group(klein4)", "indicator->dihedral(3)",
                 "cyclic(L=2),snr=0.0"):
        with pytest.raises(InvalidParameterError):
            Model.from_name(name)


def test_samplers_record_the_model_name():
    group, full = build_catalog("quaternion8")
    cases = [(Model("circle", L=2, snr=0.5), sample_gsynch_circle(2, 0.5, 4, seed=1),
              "circle(L=2),snr=0.5"),
             (Model("cyclic", L=5, snr=0.9), sample_gsynch_cyclic(5, 0.9, 4, seed=1),
              "cyclic(L=5),snr=0.9"),
             (_catalog_model("quaternion8", 0.7),
              sample_gsynch_group(group, full.nonredundant(), 0.7, 4, seed=1),
              "group(quaternion8),snr=0.7")]
    for model, obs, described in cases:
        assert obs.model == model.name == model.sample(4, seed=1).model
        assert model.describe() == described


def test_group_model_checks_its_irrep_list():
    group, full = build_cyclic(4)
    with pytest.raises(InvalidParameterError):
        Model("group", group=group, irreps=full)          # a full list
    _, other = build_cyclic(3)
    with pytest.raises(InvalidParameterError):
        Model("group", group=group, irreps=other.nonredundant())   # one matrix per element of C3
    with pytest.raises(InvalidParameterError):
        sample_gsynch_group(group, other.nonredundant(), 1.0, 5, seed=0)


@pytest.mark.parametrize("snr", [np.nan, -0.9, np.inf])
def test_model_rejects_bad_snr(snr):
    # the Monte-Carlo route reads the model's snr without a check of its own
    with pytest.raises(InvalidParameterError):
        Model("cyclic", L=3, snr=snr)
