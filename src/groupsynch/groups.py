"""Finite groups and their unitary irreducible representations.

Groups are stored as multiplication tables over element indices 0..L-1;
products and inverses are read straight off ``mul`` and ``inverse``.
Representations are dense complex matrices, one per element.  The catalog
covers cyclic groups, dihedral groups and the quaternion group of order 8,
with hard-coded analytic irreps.  Irreps of other groups are not computed: a
custom group is built from :class:`FiniteGroup`, :class:`Irrep` and
:class:`IrrepList`, then checked with :meth:`IrrepList.validate`.

Conventions:
  * an irrep's ``dim`` is always its complex dimension.  Quaternionic-type
    irreps are stored in their complex form, so ``dim`` is even and the
    quaternionic dimension is ``dim // 2``.
  * the non-redundant list drops the trivial irrep and keeps one irrep per
    conjugate pair: the member whose first non-real character value has
    positive imaginary part (ties broken by list order).
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field

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
    "frobenius_schur",
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
        if not all(map(integer(0, L - 1).holds, table.flat)):   # no bool, float or string
            raise InvalidParameterError("table entries must be element indices: "
                                        f"integers in [0, {L - 1}]")
        mul = table.astype(np.int64)
        # Latin square: every row and column is a permutation.
        full = np.arange(L)
        if not (np.all(np.sort(mul, axis=0) == full[:, None]) and
                np.all(np.sort(mul, axis=1) == full[None, :])):
            raise InvalidParameterError("multiplication table is not a Latin square")
        # Associativity, exhaustively (L <= 64 keeps this at <= 64^3 lookups):
        # mul[mul[a, b], c] against mul[a, mul[b, c]].
        if not np.array_equal(mul[mul], mul[:, mul]):
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


@dataclass(frozen=True)
class Irrep:
    """A unitary irreducible representation as a stack of matrices.

    ``matrices[g]`` is the (complex) matrix of element ``g``.  ``type_tag``
    is one of ``real``, ``complex``, ``quaternionic``.
    """

    matrices: np.ndarray
    type_tag: str
    name: str = ""

    def __post_init__(self):
        mats = np.ascontiguousarray(np.asarray(self.matrices, dtype=np.complex128))
        mats.setflags(write=False)
        object.__setattr__(self, "matrices", mats)
        if mats.ndim != 3 or mats.shape[1] != mats.shape[2]:
            raise InvalidParameterError("irrep matrices must be a (L, d, d) stack")
        if self.type_tag not in ("real", "complex", "quaternionic"):
            raise InvalidParameterError(f"unknown type tag {self.type_tag!r}")
        if self.type_tag == "quaternionic" and mats.shape[1] % 2:
            raise InvalidParameterError("quaternionic irreps have even complex dimension")

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
        """Check homomorphism, unitarity, type tag and (if quaternionic) block form."""
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
        fs = frobenius_schur(group, self)
        expected = {1: "real", 0: "complex", -1: "quaternionic"}[fs]
        if expected != self.type_tag:
            raise NumericalInconsistencyError(
                f"type tag {self.type_tag!r} disagrees with indicator value {fs}")
        if self.type_tag == "quaternionic" and not _is_quaternionic_form(mats, tol):
            raise NumericalInconsistencyError("quaternionic 2x2 block structure violated")


def _is_quaternionic_form(mats: np.ndarray, tol: float) -> bool:
    # Every 2x2 block must look like [[a+bi, c+di], [-c+di, a-bi]].
    d = mats.shape[1]
    blocks = mats.reshape(mats.shape[0], d // 2, 2, d // 2, 2).transpose(0, 1, 3, 2, 4)
    ok_diag = np.abs(blocks[..., 1, 1] - blocks[..., 0, 0].conj()).max() <= tol
    ok_off = np.abs(blocks[..., 1, 0] + blocks[..., 0, 1].conj()).max() <= tol
    return bool(ok_diag and ok_off)


@dataclass(frozen=True)
class IrrepList:
    """An ordered list of irreps with a declared convention.

    ``mode="full"`` means one irrep per isomorphism class (trivial included,
    conjugate pairs both present), so complex dimensions satisfy
    sum(d^2) == |G|.  ``mode="nonredundant"`` means the trivial irrep is
    excluded and exactly one irrep per conjugate pair is kept.
    """

    entries: tuple
    mode: str = "full"

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))
        if self.mode not in ("full", "nonredundant"):
            raise InvalidParameterError(f"unknown mode {self.mode!r}")

    def __iter__(self):
        return iter(self.entries)

    def __len__(self):
        return len(self.entries)

    def __getitem__(self, i):
        return self.entries[i]

    def validate(self, group: FiniteGroup, tol: float = STRUCT_TOL) -> None:
        for irrep in self.entries:
            irrep.validate(group, tol)
        if self.mode == "full":
            if sum(r.dim ** 2 for r in self.entries) != group.order:
                raise NumericalInconsistencyError(
                    "full list must satisfy the dimension count sum(d^2) == |G|")
        else:
            if any(r.is_trivial for r in self.entries):
                raise NumericalInconsistencyError("nonredundant list contains the trivial irrep")
            chars = [r.character() for r in self.entries]
            for i in range(len(chars)):
                j = _conjugate_of(chars, i)
                if j is not None:       # the first such i finds its first partner past it
                    raise NumericalInconsistencyError(
                        f"entries {i} and {j} form a conjugate pair")

    def nonredundant(self) -> "IrrepList":
        """Reduce a full list to the nonredundant convention.

        Keeps, from each conjugate pair, the irrep whose first non-real
        character entry has positive imaginary part, where the pair's first
        member sits.
        """
        if self.mode == "nonredundant":
            return self
        keep = []
        skip = set()
        chars = [r.character() for r in self.entries]
        for i, irrep in enumerate(self.entries):
            if i in skip or irrep.is_trivial:
                continue
            nonreal = chars[i].imag[np.abs(chars[i].imag) > 1e-8]
            partner = _conjugate_of(chars, i) if len(nonreal) else None
            if partner is not None:
                skip.add(partner)
                if nonreal[0] <= 0:
                    irrep = self.entries[partner]
            keep.append(irrep)
        return IrrepList(tuple(keep), mode="nonredundant")


def _conjugate_of(chars: list, i: int):
    """The first j != i whose character is the conjugate of character i within
    1e-8, or None."""
    return next((j for j, chi in enumerate(chars)
                 if j != i and np.abs(chi - chars[i].conj()).max() <= 1e-8), None)


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
    entries = []
    for k in range(L):
        mats = roots[(k * np.arange(L)) % L].reshape(L, 1, 1)
        tag = "real" if (2 * k) % L == 0 else "complex"
        entries.append(Irrep(mats, tag, name=f"freq-{k}"))
    return group, IrrepList(tuple(entries), mode="full")


_DIHEDRAL_M = integer(3)    # the catalog's dihedral groups start at the triangle's


def build_dihedral(m: int):
    """Dihedral group of order ``2m`` with its standard irreps.

    Elements 0..m-1 are rotations r^a, elements m..2m-1 are reflections
    s r^a, with (s r^a)(s r^b) = r^(b-a).
    """
    L = 2 * _DIHEDRAL_M.check("m", m)

    def prod(x, y):
        ax, sx = x % m, x // m
        ay, sy = y % m, y // m
        a = (ay + (ax if sy == 0 else -ax)) % m
        return ((sx + sy) % 2) * m + a

    mul = np.array([[prod(x, y) for y in range(L)] for x in range(L)])
    labels = tuple([f"r{a}" for a in range(m)] + [f"sr{a}" for a in range(m)])
    group = FiniteGroup(mul, labels=labels, name=f"dihedral({m})")

    entries = [Irrep(np.ones((L, 1, 1)), "real", name="trivial")]
    sign = np.where(np.arange(L) < m, 1.0, -1.0).reshape(L, 1, 1)
    entries.append(Irrep(sign.astype(complex), "real", name="sign"))
    if m % 2 == 0:
        alt = np.array([(-1.0) ** (g % m) for g in range(L)]).reshape(L, 1, 1)
        entries.append(Irrep(alt.astype(complex), "real", name="alt"))
        entries.append(Irrep((alt * sign).astype(complex), "real", name="alt-sign"))
    w = np.exp(2j * np.pi / m)
    kmax = (m - 1) // 2 if m % 2 else m // 2 - 1
    for k in range(1, kmax + 1):
        mats = np.zeros((L, 2, 2), dtype=complex)
        a = np.arange(m)
        mats[:m, 0, 0] = w ** (k * a)
        mats[:m, 1, 1] = w ** (-k * a)
        mats[m:, 0, 1] = w ** (-k * a)
        mats[m:, 1, 0] = w ** (k * a)
        entries.append(Irrep(mats, "real", name=f"rot-{k}"))
    return group, IrrepList(tuple(entries), mode="full")


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
        return Irrep(np.array(values, dtype=complex).reshape(8, 1, 1), "real", name=name)

    entries = [
        one_dim([1, 1, 1, 1, 1, 1, 1, 1], "trivial"),
        one_dim([1, 1, 1, 1, -1, -1, -1, -1], "sign-i"),
        one_dim([1, 1, -1, -1, 1, 1, -1, -1], "sign-j"),
        one_dim([1, 1, -1, -1, -1, -1, 1, 1], "sign-k"),
        Irrep(reps2, "quaternionic", name="spin"),
    ]
    return group, IrrepList(tuple(entries), mode="full")


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
# Classification and Fourier machinery
# ---------------------------------------------------------------------------

def frobenius_schur(group: FiniteGroup, irrep: Irrep) -> int:
    """Indicator (1/L) * sum_g chi(g^2), rounded to {-1, 0, +1}.

    +1 marks real type, 0 complex type, -1 quaternionic type.
    """
    squares = group.mul[np.arange(group.order), np.arange(group.order)]
    raw = irrep.character()[squares].sum() / group.order
    nearest = min((-1, 0, 1), key=lambda v: abs(raw - v))
    if abs(raw - nearest) > 1e-8:
        raise NumericalInconsistencyError(
            f"indicator value {raw} is not within 1e-8 of -1, 0 or +1")
    return nearest


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
    if irreps.mode != "full":
        raise InvalidParameterError("regular representation needs the full irrep list")
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

