import numpy as np
import pytest

from groupsynch.errors import InvalidParameterError, NumericalInconsistencyError
from groupsynch.groups import (FiniteGroup, Irrep, IrrepList, build_catalog, build_cyclic,
                               build_dihedral, build_quaternion8, frobenius_schur,
                               peter_weyl_orthogonality_check,
                               regular_rep_matrix, regular_rep_unitary)


@pytest.mark.parametrize("L", [2, 3, 4, 6, 7, 12])
def test_cyclic_structure(L):
    group, full = build_cyclic(L)
    assert group.order == L
    assert group.identity == 0
    full.validate(group)
    assert sum(r.dim ** 2 for r in full) == L
    nr = full.nonredundant()
    nr.validate(group)
    assert len(nr) == L // 2


def test_cyclic_small_examples():
    _, full3 = build_cyclic(3)
    nr3 = full3.nonredundant()
    assert [(r.dim, r.type_tag) for r in nr3] == [(1, "complex")]

    _, full4 = build_cyclic(4)
    nr4 = full4.nonredundant()
    assert [(r.dim, r.type_tag) for r in nr4] == [(1, "complex"), (1, "real")]

    _, full6 = build_cyclic(6)
    k1 = full6.nonredundant()[0]
    assert k1.matrices[3][0, 0] == pytest.approx(-1.0, abs=1e-12)


def test_cyclic_rejects_bad_order():
    with pytest.raises(InvalidParameterError):
        build_cyclic(1)
    with pytest.raises(InvalidParameterError):
        build_dihedral(2)
    with pytest.raises(InvalidParameterError):
        build_catalog("icosahedral")


def test_quaternion8_catalog():
    group, full = build_quaternion8()
    full.validate(group)
    quat = [r for r in full if r.type_tag == "quaternionic"]
    assert len(quat) == 1 and quat[0].dim == 2
    assert frobenius_schur(group, quat[0]) == -1
    # one irrep per isomorphism class: 4 + 4 + ... sums to 8
    assert sorted(r.dim for r in full) == [1, 1, 1, 1, 2]


def test_dihedral3_matches_symmetric_group():
    group, full = build_dihedral(3)
    full.validate(group)
    nr = full.nonredundant()
    assert sorted(r.dim for r in nr) == [1, 2]
    assert all(r.type_tag == "real" for r in nr)


def test_dihedral4_identity_matrices():
    group, full = build_dihedral(4)
    for irrep in full:
        assert np.allclose(irrep.matrices[group.identity], np.eye(irrep.dim))


@pytest.mark.parametrize("L", range(2, 25))
def test_frobenius_schur_cyclic_rule(L):
    group, full = build_cyclic(L)
    for k, irrep in enumerate(full):
        expected = 1 if (2 * k) % L == 0 else 0
        assert frobenius_schur(group, irrep) == expected


def test_regular_rep_unitary_cyclic_is_dft():
    group, full = build_cyclic(5)
    U = regular_rep_unitary(group, full)
    dft = np.exp(2j * np.pi * np.outer(np.arange(5), np.arange(5)) / 5) / np.sqrt(5)
    # same rows up to order
    for row in U:
        assert min(np.abs(dft - row).max(axis=1).min() for _ in [0]) < 1e-10


def test_regular_rep_block_diagonalization():
    group, full = build_dihedral(3)
    U = regular_rep_unitary(group, full)
    assert np.abs(U @ U.conj().T - np.eye(6)).max() < 1e-10
    dims = []
    for irrep in full:
        dims.extend([irrep.dim] * irrep.dim)
    assert sorted(dims) == [1, 1, 2, 2]
    for g in range(group.order):
        M = U @ regular_rep_matrix(group, g) @ U.conj().T
        off = 0
        for irrep in full:
            d = irrep.dim
            for _ in range(d):
                blk = M[off:off + d, off:off + d]
                assert np.abs(blk - irrep.matrices[g]).max() < 1e-10
                M[off:off + d, off:off + d] = 0
                off += d
        assert np.abs(M).max() < 1e-10  # nothing outside the blocks


def test_block_homomorphism_independent():
    # blocks extracted from the conjugated regular representation compose
    group, full = build_quaternion8()
    U = regular_rep_unitary(group, full)
    conj = [U @ regular_rep_matrix(group, g) @ U.conj().T for g in range(8)]
    off = 4  # first 4 rows are the 1-dim irreps
    blocks = [m[off:off + 2, off:off + 2] for m in conj]
    for a in range(8):
        for b in range(8):
            assert np.abs(blocks[a] @ blocks[b] - blocks[group.mul[a, b]]).max() < 1e-10


def test_identity_conjugation_trivial():
    group, full = build_cyclic(7)
    U = regular_rep_unitary(group, full)
    M = U @ regular_rep_matrix(group, group.identity) @ U.conj().T
    assert np.abs(M - np.eye(7)).max() < 1e-10


@pytest.mark.parametrize("name,tol", [("cyclic(5)", 1e-12), ("quaternion8", 1e-10),
                                      ("dihedral(4)", 1e-10), ("dihedral(5)", 1e-10)])
def test_peter_weyl_orthogonality(name, tol):
    group, full = build_catalog(name)
    assert peter_weyl_orthogonality_check(group, full) < tol


def test_trivial_irrep_normalized():
    group, full = build_cyclic(4)
    trivial = [r for r in full if r.is_trivial]
    assert len(trivial) == 1
    chi = trivial[0].character()
    assert abs((chi * chi.conj()).sum() / group.order - 1.0) < 1e-14


def test_latin_square_and_associativity_rejects():
    with pytest.raises(InvalidParameterError):
        FiniteGroup(np.array([[0, 0], [1, 1]]))
    # subtraction mod 3: a Latin square that is not associative
    mul = (np.arange(3)[:, None] - np.arange(3)[None, :]) % 3
    with pytest.raises(InvalidParameterError):
        FiniteGroup(mul)


@pytest.mark.parametrize("mul", [np.zeros((0, 0)), [[]], [["a"]], [[0, 1], [1, 0.5]],
                                 [[0.0, 1.0], [1.0, 0.0]], [[True, False], [False, True]],
                                 [[0, True], [True, 0]], [[0, 1], [1]], [0, 1], 0,
                                 [[0, 1], [1, None]], [[0, 1], [1, 2]], [[0, -1], [-1, 0]]])
def test_bad_tables_raise_typed(mul):
    with pytest.raises(InvalidParameterError):
        FiniteGroup(mul)


@pytest.mark.parametrize("dtype", [np.int8, np.uint8, np.int16, np.uint16, np.int32,
                                   np.uint32, np.int64, np.uint64])
def test_tables_of_any_integer_dtype_are_accepted(dtype):
    want, _ = build_cyclic(3)
    group = FiniteGroup(want.mul.astype(dtype))
    assert group.mul.dtype == np.int64 and np.array_equal(group.mul, want.mul)
    assert np.array_equal(group.inverse, want.inverse) and group.identity == 0


@pytest.mark.parametrize("name", ["cyclic(2)", "cyclic(7)", "cyclic(12)", "dihedral(3)",
                                  "dihedral(4)", "dihedral(6)", "quaternion8"])
def test_relabelled_catalog_tables_give_identity_and_inverses(name):
    # element g of the catalog is element perm[g] here, so the identity is seldom 0
    mul = build_catalog(name)[0].mul
    perm = np.random.default_rng(25).permutation(len(mul))
    relabelled = np.empty_like(mul)
    relabelled[np.ix_(perm, perm)] = perm[mul]
    group = FiniteGroup(relabelled)
    e, inv, full = group.identity, group.inverse, np.arange(len(mul))
    assert np.array_equal(group.mul[e], full) and np.array_equal(group.mul[:, e], full)
    assert np.all(group.mul[full, inv] == e) and np.all(group.mul[inv, full] == e)


def test_nonredundant_keeps_the_positive_member_where_its_pair_starts():
    # freq-5 (negative imaginary part at g = 1) comes before its partner freq-1, with
    # freq-3 between them; likewise freq-4 before freq-2, with the trivial irrep between
    group, full = build_cyclic(6)
    shuffled = IrrepList(tuple(full[i] for i in (5, 3, 1, 4, 0, 2)))
    nr = shuffled.nonredundant()
    assert [r.name for r in nr] == ["freq-1", "freq-3", "freq-2"]
    nr.validate(group)


def test_nonredundant_validation_names_the_first_conjugate_pair():
    group, full = build_cyclic(6)
    pairs = IrrepList((full[3], full[4], full[1], full[5], full[2]), mode="nonredundant")
    with pytest.raises(NumericalInconsistencyError, match="entries 1 and 4 form"):
        pairs.validate(group)


def test_irrep_validation_catches_broken_homomorphism():
    group, full = build_cyclic(3)
    mats = full[1].matrices.copy()
    mats[2] *= np.exp(0.3j)
    bad = Irrep(mats, "complex")
    with pytest.raises(NumericalInconsistencyError):
        bad.validate(group)


def test_type_tag_must_match_indicator():
    group, full = build_cyclic(4)
    # frequency 2 is real-valued; claiming complex must fail validation
    bad = Irrep(full[2].matrices, "complex")
    with pytest.raises(NumericalInconsistencyError):
        bad.validate(group)


def test_frobenius_schur_rejects_non_integer_value():
    group, full = build_cyclic(4)
    mats = full[2].matrices * np.exp(0.2j)  # break the homomorphism
    skewed = Irrep(mats, "real")
    with pytest.raises(NumericalInconsistencyError):
        frobenius_schur(group, skewed)


def test_nontrivial_irrep_matrices_sum_to_zero():
    for name in ("cyclic(5)", "dihedral(4)", "quaternion8"):
        group, full = build_catalog(name)
        for irrep in full:
            total = irrep.matrices.sum(axis=0)
            if irrep.is_trivial:
                assert np.abs(total - group.order).max() < 1e-10
            else:
                assert np.abs(total).max() < 1e-10
