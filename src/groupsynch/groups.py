"""Finite groups and their unitary irreducible representations.

Groups are stored as multiplication tables over element indices 0..L-1;
products and inverses are read straight off ``mul`` and ``inverse``.
Representations are dense complex matrices, one per element.  The catalog
covers cyclic groups, dihedral groups and the quaternion group of order 8,
with hard-coded analytic irreps.  Irreps of other groups are not computed: a
custom group is built from :class:`FiniteGroup`, :class:`Irrep` and
:class:`IrrepList`; :meth:`IrrepList.validate` checks homomorphism and unitarity.

Conventions:
  * an irrep's type (real, complex or quaternionic) is read off its matrices
    by the Frobenius-Schur indicator, never declared.  A real-type irrep is
    given in a real basis and a quaternionic one in 2x2 quaternionic blocks,
    the forms the GOE and GSE noise of its channel assume.
  * an irrep's ``dim`` is always its complex dimension.  Quaternionic-type
    irreps are stored in their complex form, so ``dim`` is even and the
    quaternionic dimension is ``dim // 2``.
  * a list is nonredundant, read off its entries, when none is trivial and no
    two have conjugate characters.  ``nonredundant()`` keeps from each conjugate
    pair the member whose first non-real character value has positive imaginary
    part (ties broken by list order), and drops the trivial irrep.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ._rules import NONNEGATIVE, ORDER, integer
from .errors import InvalidParameterError, NumericalInconsistencyError

__all__ = [
    "FiniteGroup",
    "Irrep",
    "IrrepList",
    "build_cyclic",
    "build_dihedral",
    "build_quaternion8",
    "build_catalog",
    "regular_rep_unitary",
    "peter_weyl_orthogonality_check",
]

STRUCT_TOL = 1e-10


@dataclass(frozen=True)
class FiniteGroup:
    """A finite group given by its multiplication table.

    ``mul[a, b]`` is the index of the product of elements ``a`` and ``b``.
    Immutable after construction; validation runs once in ``__post_init__``.
    """

    mul: np.ndarray
    labels: tuple = None
    name: str = "group"
    identity: int = field(init=False)
    inverse: np.ndarray = field(init=False)

    def __post_init__(self):
        table = np.array(self.mul, dtype=object)
        if table.ndim != 2 or table.shape[0] != table.shape[1] or table.size == 0:
            raise InvalidParameterError("multiplication table must be square and nonempty")
        L = table.shape[0]
        rule = integer(0, L - 1)
        # the rule refuses a bool, float or string by its type, so it tests one entry per
        # distinct type; every entry is then an integer, in range if the extremes are
        if not (all(map(rule.holds, dict(zip(map(type, table.flat), table.flat)).values()))
                and rule.holds(table.min()) and rule.holds(table.max())):
            raise InvalidParameterError(f"each table entry must be an element index, {rule}")
        mul = table.astype(np.int64)
        # Latin square: every row and column is a permutation.
        full = np.arange(L)
        if not (np.all(np.sort(mul, axis=0) == full[:, None]) and
                np.all(np.sort(mul, axis=1) == full[None, :])):
            raise InvalidParameterError("multiplication table is not a Latin square")
        if not _is_associative(mul):
            raise InvalidParameterError("multiplication table is not associative")
        # an associative Latin square is a group: its identity and inverses exist, unique
        e = int(np.flatnonzero((mul == full).all(axis=1))[0])
        inv = np.argmax(mul == e, axis=1)
        mul.setflags(write=False)
        inv.setflags(write=False)
        object.__setattr__(self, "mul", mul)
        object.__setattr__(self, "identity", e)
        object.__setattr__(self, "inverse", inv)
        if self.labels is not None and len(self.labels) != L:
            raise InvalidParameterError("labels length must equal group order")

    @property
    def order(self) -> int:
        return self.mul.shape[0]

    def label(self, g: int) -> str:
        return self.labels[g] if self.labels is not None else str(g)


def _is_associative(mul: np.ndarray) -> bool:
    """Light's test: (x g) y == x (g y) for every x, y and each g of a generating set.

    The g that pass are closed under products, so passing on a set that generates
    the table proves it associative.  Each g is the first element that products of
    the earlier picks do not reach: at most log2 L + 1 picks in a group, each
    testing two L x L tables and closing the reached set by squaring it.
    """
    reached = np.zeros(len(mul), dtype=bool)
    while not reached.all():
        g = int(np.argmin(reached))
        if not np.array_equal(mul[mul[:, g]], mul[:, mul[g]]):
            return False
        reached[g] = True
        size = 0
        while size < reached.sum():
            size = reached.sum()
            idx = np.flatnonzero(reached)
            reached[mul[np.ix_(idx, idx)]] = True
    return True


@dataclass(frozen=True)
class Irrep:
    """A unitary irreducible representation as a stack of matrices.

    ``matrices[g]`` is the (complex) matrix of element ``g``.  ``type_tag``,
    one of ``real``, ``complex`` and ``quaternionic``, is read off the
    matrices: the Frobenius-Schur indicator (1/L) sum_g tr(rho(g)^2) is +1, 0
    or -1.  A real-type stack must be real and a quaternionic one in 2x2
    quaternionic blocks.
    """

    matrices: np.ndarray
    name: str = field(default="", kw_only=True)
    type_tag: str = field(init=False)

    def __post_init__(self):
        mats = np.ascontiguousarray(np.asarray(self.matrices, dtype=np.complex128))
        mats.setflags(write=False)
        object.__setattr__(self, "matrices", mats)
        if mats.ndim != 3 or mats.shape[1] != mats.shape[2] or mats.size == 0:
            raise InvalidParameterError("irrep matrices must be a nonempty (L, d, d) stack")
        with np.errstate(all="ignore"):     # a non-finite value fails the test below
            raw = np.einsum("gij,gji->", mats, mats) / len(mats)
        nearest = min((-1, 0, 1), key=lambda v: abs(raw - v))
        if not abs(raw - nearest) <= 1e-8:
            raise NumericalInconsistencyError(
                f"indicator value {raw} is not within 1e-8 of -1, 0 or +1")
        type_tag = {1: "real", 0: "complex", -1: "quaternionic"}[nearest]
        object.__setattr__(self, "type_tag", type_tag)
        if type_tag == "real" and np.abs(mats.imag).max() > STRUCT_TOL:
            raise InvalidParameterError("a real-type irrep must be given in a real basis")
        if type_tag == "quaternionic" and not _is_quaternionic_form(mats):
            raise InvalidParameterError("a quaternionic irrep must be given in 2x2 "
                                        "quaternionic blocks")

    @property
    def dim(self) -> int:
        """Complex dimension of the representation space."""
        return self.matrices.shape[1]

    @property
    def model_dim(self) -> int:
        """Dimension parameter used by the observation model.

        Equals the complex dimension except for quaternionic type, where the
        model is parameterized by the quaternionic dimension ``dim // 2``.
        """
        return self.dim // 2 if self.type_tag == "quaternionic" else self.dim

    @property
    def is_trivial(self) -> bool:
        return self.dim == 1 and np.allclose(self.matrices, 1.0, atol=STRUCT_TOL)

    def character(self) -> np.ndarray:
        return np.einsum("gii->g", self.matrices)

    def validate(self, group: FiniteGroup, tol: float = STRUCT_TOL) -> None:
        """Check the homomorphism property and unitarity against ``group``."""
        mats = self.matrices
        L = group.order
        if mats.shape[0] != L:
            raise InvalidParameterError("one matrix per group element required")
        prod = np.einsum("aij,bjk->abik", mats, mats)
        if np.abs(prod - mats[group.mul]).max() > tol:
            raise NumericalInconsistencyError("homomorphism property violated")
        gram = np.einsum("gij,gkj->gik", mats, mats.conj())
        if np.abs(gram - np.eye(self.dim)).max() > tol:
            raise NumericalInconsistencyError("matrices are not unitary")


def _is_quaternionic_form(mats: np.ndarray) -> bool:
    # Every 2x2 block must look like [[a+bi, c+di], [-c+di, a-bi]].
    d = mats.shape[1]
    if d % 2:
        return False
    blocks = mats.reshape(mats.shape[0], d // 2, 2, d // 2, 2).transpose(0, 1, 3, 2, 4)
    ok_diag = np.abs(blocks[..., 1, 1] - blocks[..., 0, 0].conj()).max() <= STRUCT_TOL
    ok_off = np.abs(blocks[..., 1, 0] + blocks[..., 0, 1].conj()).max() <= STRUCT_TOL
    return bool(ok_diag and ok_off)


@dataclass(frozen=True)
class IrrepList:
    """An ordered list of irreps whose convention is read off its entries.

    A full list holds one irrep per isomorphism class, the trivial one and both
    members of each conjugate pair, so complex dimensions satisfy
    sum(d^2) == |G|; :func:`regular_rep_unitary` checks that count.  A list is
    nonredundant when no entry is trivial and no two entries have conjugate
    characters: one observed channel per entry, the list a group model takes.
    """

    entries: tuple

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))

    def __iter__(self):
        return iter(self.entries)

    def __len__(self):
        return len(self.entries)

    def __getitem__(self, i):
        return self.entries[i]

    def validate(self, group: FiniteGroup, tol: float = STRUCT_TOL) -> None:
        """Check each entry's homomorphism property and unitarity against ``group``."""
        for irrep in self.entries:
            irrep.validate(group, tol)

    @property
    def is_nonredundant(self) -> bool:
        """No entry is trivial and no two entries have conjugate characters."""
        return self._redundancy is None

    @cached_property
    def _redundancy(self):
        """The first trivial entry, or else the first conjugate pair, in words; None if
        the list is nonredundant."""
        trivial = [i for i, r in enumerate(self.entries) if r.is_trivial]
        pairs = [(i, j) for i, j in enumerate(self._partners) if j is not None]
        if trivial:
            return f"entry {trivial[0]} is the trivial irrep"
        # the first i with a partner finds its first partner past it
        return "entries %d and %d form a conjugate pair" % pairs[0] if pairs else None

    @cached_property
    def _partners(self) -> list:
        """Per entry, the first other entry whose character is within 1e-8 of the
        conjugate of its own at every element, or None.  Such a character's projection
        Re(.) @ w + Im(.) @ v is within 1e-8 (sum|w| + sum|v|) of the conjugate's, so one
        sort finds the candidates in twice that window and the 1e-8 test confirms each."""
        chars = np.array([r.character() for r in self.entries] or np.empty((0, 0)))
        # sines of integers: constant weights would send every nontrivial character to 0
        w, v = np.sin(np.arange(1.0, 2 * chars.shape[1] + 1)).reshape(2, -1)
        own, conj = chars.real @ w + chars.imag @ v, chars.real @ w - chars.imag @ v
        order = np.argsort(own)
        window = 2e-8 * (np.abs(w).sum() + np.abs(v).sum())
        lo = np.searchsorted(own[order], conj - window)
        hi = np.searchsorted(own[order], conj + window, side="right")
        return [min((int(j) for j in order[lo[i]:hi[i]]
                     if j != i and np.abs(chars[j] - chi.conj()).max() <= 1e-8), default=None)
                for i, chi in enumerate(chars)]

    def nonredundant(self) -> "IrrepList":
        """Drop the trivial irrep and keep, from each conjugate pair, the irrep whose
        first non-real character value has positive imaginary part, where the pair's
        first member sits."""
        keep, skip = [], set()
        for i, irrep in enumerate(self.entries):
            imag = irrep.character().imag
            nonreal = imag[np.abs(imag) > 1e-8]
            partner = self._partners[i] if len(nonreal) else None
            if i not in skip and not irrep.is_trivial:
                skip.add(partner)
                keep.append(irrep if partner is None or nonreal[0] > 0 else self.entries[partner])
        return IrrepList(keep)


# ---------------------------------------------------------------------------
# Catalog groups
# ---------------------------------------------------------------------------

def build_cyclic(L: int):
    """Cyclic group of order ``L`` with its full list of 1-dim irreps.

    Irrep ``k`` maps ``g`` to exp(2*pi*i*k*g/L); the value is looked up in a
    fixed table of L-th roots of unity so that equal angles produce
    bit-identical complex numbers across callers.
    """
    ORDER.check("L", L)
    mul = (np.arange(L)[:, None] + np.arange(L)[None, :]) % L
    labels = tuple(str(g) for g in range(L))
    group = FiniteGroup(mul, labels=labels, name=f"cyclic({L})")
    roots = np.exp(2j * np.pi * np.arange(L) / L)
    return group, IrrepList(Irrep(roots[(k * np.arange(L)) % L].reshape(L, 1, 1), name=f"freq-{k}")
                            for k in range(L))


_DIHEDRAL_M = integer(3)    # the catalog's dihedral groups start at the triangle's


def build_dihedral(m: int):
    """Dihedral group of order ``2m`` with its standard irreps.

    Elements 0..m-1 are rotations r^a, elements m..2m-1 are reflections
    s r^a, with (s r^a)(s r^b) = r^(b-a).
    """
    L = 2 * _DIHEDRAL_M.check("m", m)

    # g = s^f r^a with f = g // m, a = g % m: (s^f r^a)(s^f' r^a') = s^(f+f') r^(a' + (-1)^f' a)
    a, f = np.arange(L) % m, np.arange(L) // m
    mul = (f[:, None] ^ f) * m + (a + (1 - 2 * f) * a[:, None]) % m
    labels = tuple([f"r{a}" for a in range(m)] + [f"sr{a}" for a in range(m)])
    group = FiniteGroup(mul, labels=labels, name=f"dihedral({m})")

    entries = [Irrep(np.ones((L, 1, 1)), name="trivial")]
    sign = np.where(np.arange(L) < m, 1.0, -1.0).reshape(L, 1, 1)
    entries.append(Irrep(sign, name="sign"))
    if m % 2 == 0:
        alt = np.array([(-1.0) ** (g % m) for g in range(L)]).reshape(L, 1, 1)
        entries.append(Irrep(alt, name="alt"))
        entries.append(Irrep(alt * sign, name="alt-sign"))
    kmax = (m - 1) // 2 if m % 2 else m // 2 - 1
    for k in range(1, kmax + 1):
        # real orthogonal form: r^a -> [[c, -s], [s, c]], s r^a -> [[c, -s], [-s, -c]]
        theta = 2 * np.pi * ((k * np.arange(m)) % m) / m
        c, s = np.cos(theta), np.sin(theta)
        rot = np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], 1)
        entries.append(Irrep(np.concatenate([rot, rot * [[1], [-1]]]), name=f"rot-{k}"))
    return group, IrrepList(entries)


def build_quaternion8():
    """Quaternion group Q8: four 1-dim irreps and one quaternionic 2-dim irrep."""
    # element order: 1, -1, i, -i, j, -j, k, -k
    labels = ("1", "-1", "i", "-i", "j", "-j", "k", "-k")
    i2 = np.eye(2, dtype=complex)
    qi = np.array([[1j, 0], [0, -1j]])
    qj = np.array([[0, 1], [-1, 0]], dtype=complex)
    qk = qi @ qj
    reps2 = np.stack([i2, -i2, qi, -qi, qj, -qj, qk, -qk])
    # multiplication table from the faithful 2-dim rep: every entry is 0, +-1 or
    # +-i, so each product is exact and equals exactly one element's matrix
    prods = np.einsum("aij,bjk->abik", reps2, reps2)
    mul = np.argmax((prods[:, :, None] == reps2).all(axis=(3, 4)), axis=2)
    group = FiniteGroup(mul, labels=labels, name="quaternion8")

    def one_dim(values, name):
        return Irrep(np.array(values, dtype=complex).reshape(8, 1, 1), name=name)

    entries = [
        one_dim([1, 1, 1, 1, 1, 1, 1, 1], "trivial"),
        one_dim([1, 1, 1, 1, -1, -1, -1, -1], "sign-i"),
        one_dim([1, 1, -1, -1, 1, 1, -1, -1], "sign-j"),
        one_dim([1, 1, -1, -1, -1, -1, 1, 1], "sign-k"),
        Irrep(reps2, name="spin"),
    ]
    return group, IrrepList(entries)


_CATALOG_RE = re.compile(r"^(cyclic|dihedral)\((\d+)\)$|^quaternion8$")


def build_catalog(name: str):
    """Build a catalog group by name: ``cyclic(L)``, ``dihedral(m)`` or ``quaternion8``."""
    m = _CATALOG_RE.match(name.strip()) if isinstance(name, str) else None
    if m is None:
        raise InvalidParameterError(f"unknown catalog group {name!r}")
    if name.strip() == "quaternion8":
        return build_quaternion8()
    kind, arg = m.group(1), int(m.group(2))
    return build_cyclic(arg) if kind == "cyclic" else build_dihedral(arg)


# ---------------------------------------------------------------------------
# Fourier machinery
# ---------------------------------------------------------------------------

def _coefficient_rows(group: FiniteGroup, irreps: IrrepList) -> np.ndarray:
    """Rows of scaled matrix coefficients sqrt(d/L) * rho(g)_{ij}.

    Row order is (irrep, column j, row i) so that conjugating the regular
    representation yields each irrep's block repeated d times, consecutively.
    """
    L = group.order
    rows = []
    for irrep in irreps:
        d = irrep.dim
        scale = np.sqrt(d / L)
        # matrices: (L, d, d); for fixed j then i, the row over g is rho(g)[i, j]
        rows.append(scale * irrep.matrices.transpose(2, 1, 0).reshape(d * d, L))
    return np.concatenate(rows, axis=0)


def regular_rep_unitary(group: FiniteGroup, irreps: IrrepList, tol: float = STRUCT_TOL) -> np.ndarray:
    """Unitary change of basis that block-diagonalizes the regular representation.

    Requires the full irrep list.  Returns an L x L unitary U whose rows are
    the scaled matrix coefficients; U rho_reg(g) U* is block diagonal with
    each irrep's matrix repeated (complex dimension) times.
    """
    NONNEGATIVE.check("tol", tol)
    if sum(r.dim ** 2 for r in irreps) != group.order:
        raise InvalidParameterError("irrep dimension count does not match group order")
    U = _coefficient_rows(group, irreps)
    err = np.abs(U @ U.conj().T - np.eye(group.order)).max()
    if err > tol:
        raise NumericalInconsistencyError(
            f"coefficient matrix is not unitary (deviation {err:.3e}); bad irrep input")
    return U


def regular_rep_matrix(group: FiniteGroup, g: int) -> np.ndarray:
    """Permutation matrix of left translation by ``g``: e_s -> e_{gs}."""
    L = group.order
    reg = np.zeros((L, L))
    reg[group.mul[g], np.arange(L)] = 1.0
    return reg


def peter_weyl_orthogonality_check(group: FiniteGroup, irreps: IrrepList) -> float:
    """Max deviation of scaled matrix-coefficient inner products from delta.

    Inner products are taken in L^2 of the group with normalized counting
    measure; for a full irrep list the coefficients are orthonormal, and the
    returned value is the largest absolute deviation observed.
    """
    rows = _coefficient_rows(group, irreps) * np.sqrt(group.order)
    gram = rows @ rows.conj().T / group.order
    return float(np.abs(gram - np.eye(rows.shape[0])).max())

