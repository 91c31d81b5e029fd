"""Generative samplers for multi-frequency synchronization observations.

Three observation families share one container type:

  * circle prior: per frequency ell = 1..L, an n x n Hermitian matrix
    (snr/n) x^(ell) x^(ell)* + W/sqrt(n) with complex (GUE) noise, where
    x has i.i.d. uniform unit-modulus coordinates and x^(ell) is the
    entrywise power.
  * cyclic prior of order L: frequencies ell = 1..floor(L/2); the top
    frequency ell = L/2 (L even) is real-valued and carries real (GOE)
    noise, all others complex (GUE) noise.
  * general finite group with a nonredundant irrep list: per irrep rho,
    (snr/n) X X* + W/sqrt(n d) where X stacks rho(u_1)..rho(u_n), the
    noise ensemble matches the irrep type (real -> GOE, complex -> GUE,
    quaternionic -> GSE) and d is the irrep's model dimension.

:class:`Model` names the three: its ``name`` is circle(L=k), cyclic(L=k) or
group(<group name>), every observation records it, and ``Model.from_name``
is the one reader of it.  Every sampler draws its signal as
:func:`sample_signal` does from the same seed and hands its channels to one
loop, ``_observe``, where channel i takes noise stream i + 1.  A second
observation family gives, for every ordered pair (k, j), a noisy
score table over group elements with a planted bump at the true relative
element; :func:`indicator_to_canonical` changes basis with the regular
representation and recovers the per-irrep observations above.
"""
from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from . import ensembles
from ._rules import NONNEGATIVE, ORDER, SIZE, integer
from .eigen import _single_thread_blas, _tiles
from .errors import InvalidParameterError
from .groups import FiniteGroup, Irrep, IrrepList, build_catalog, regular_rep_unitary
from .rng import make_rng

__all__ = [
    "SignalVector",
    "FrequencyObservation",
    "SynchObservation",
    "IndicatorObservation",
    "Model",
    "sample_signal",
    "sample_gsynch_circle",
    "sample_gsynch_cyclic",
    "sample_gsynch_group",
    "sample_indicator",
    "indicator_to_canonical",
]

_SIGNAL_STREAM = 0
_NOISE_STREAM = 1


# unmirrored noise draws: _channel mirrors each tile in its own pass
_UPPER_NOISE = {"real": ensembles._upper_goe, "complex": ensembles._upper_gue,
                "quaternionic": ensembles._upper_gse}


@dataclass(frozen=True)
class SignalVector:
    """Latent signal: unit-modulus complex values (circle) or element indices."""

    values: np.ndarray
    prior: str
    n: int


@dataclass(frozen=True)
class FrequencyObservation:
    """One Hermitian observation channel with its metadata."""

    matrix: np.ndarray
    snr: float
    dim: int          # model dimension of the channel (quaternionic dim for GSE)
    type_tag: str
    label: str


@dataclass(frozen=True)
class SynchObservation:
    freqs: tuple
    model: str
    n: int
    seed: int = None


@dataclass(frozen=True)
class IndicatorObservation:
    """Score tables z[k, j, g] with a planted bump of height gamma."""

    scores: np.ndarray        # (n, n, L) complex
    gamma: float
    signal: np.ndarray        # true element indices, shape (n,)
    n: int
    seed: int = None


_CYCLIC_L = integer(1, 2 ** 63)     # the int64 draws of sample_signal stay below L


def sample_signal(prior, n: int, seed=None) -> SignalVector:
    """Draw an i.i.d. signal from ``prior``.

    ``prior`` is "circle", ("cyclic", L), or ("haar", group).  Circle values
    are unit-modulus complex numbers; finite priors return element indices.
    """
    SIZE.check("n", n)
    rng = make_rng(seed, _SIGNAL_STREAM)
    if prior == "circle":
        phases = rng.uniform(0.0, 2.0 * np.pi, size=n)
        return SignalVector(np.exp(1j * phases), "circle", n)
    kind, arg = prior if isinstance(prior, (tuple, list)) and len(prior) == 2 else (None, None)
    if kind == "cyclic":
        return SignalVector(rng.integers(0, int(_CYCLIC_L.check("L", arg)), size=n),
                            f"cyclic({arg})", n)
    if kind == "haar":
        group: FiniteGroup = arg
        return SignalVector(rng.integers(0, group.order, size=n), f"haar({group.name})", n)
    raise InvalidParameterError(f"unknown prior {prior!r}")


def _snr_list(snr, count: int) -> np.ndarray:
    """One snr, or one per channel, as ``count`` floats; each entry a finite real >= 0."""
    values = [float(NONNEGATIVE.check("snr", v))
              for v in np.atleast_1d(np.asarray(snr, dtype=object))]
    if len(values) not in (1, count):
        raise InvalidParameterError(f"need 1 or {count} snr values, got {len(values)}")
    return np.array(values * (count // len(values)))


def _channel(x: np.ndarray, lam: float, d: int, type_tag: str, rng,
             label: str) -> FrequencyObservation:
    """(lam/n) X X* plus the type's noise ensemble of size n d, scaled by 1/sqrt(n d).

    ``x`` stacks n square signal blocks vertically (1 x 1 for the circle and
    cyclic priors).  The noise is drawn on its diagonal and upper triangle
    only (``ensembles._upper_*``, the same stream as ``sample_goe/gue/gse``),
    and the rest is one pass over the tiles of the upper block triangle
    (``eigen._tiles``).  Each tile is divided in place by sqrt(n d) and gets
    the signal 0.5 (A + B*), with A = (lam/n) X_I X_J* and B the same product
    for (J, I), which cancels the 1-ulp asymmetry of floating outer products
    (B = A on diagonal tiles); an off-diagonal tile's conjugate transpose is
    then copied onto (J, I).  At lam = 0 off-diagonal tiles skip the
    products, since adding zeros leaves their (nonzero) entries unchanged.
    A diagonal tile mirrors its scaled noise before the signal is added and
    adds it even at lam = 0, so every channel equals the mirrored
    ``sample_goe/gue/gse`` draw, scaled, plus the signal, bit for bit: for
    imaginary parts +0 and -0, conj(a + b) has imaginary part -0 where
    conj(a) + conj(b) has +0, and the exact zeros inside the GSE 2 x 2
    diagonal blocks would change sign under any other order.
    The observation is exactly Hermitian, no n x n temporary is formed, and
    every sampler goes through these per-tile matmuls, so the cyclic and
    group samplers of the same prior agree bit for bit.
    """
    n = x.shape[0] // x.shape[1]
    y = _UPPER_NOISE[type_tag](n * d, rng)
    scale = np.sqrt(n * d)
    xh = x.conj()
    for rows, cols in _tiles(len(y)):
        tile = y[rows, cols]
        np.divide(tile, scale, out=tile)
        diagonal = rows == cols
        if diagonal:
            ensembles._mirror_tile(y, rows, cols)
        if diagonal or lam != 0:
            a = (lam / n) * (x[rows] @ xh[cols].T)
            b = a if diagonal else (lam / n) * (x[cols] @ xh[rows].T)
            sig = 0.5 * (a + b.conj().T)
            tile += sig.real if type_tag == "real" else sig
        if not diagonal:
            ensembles._mirror_tile(y, rows, cols)
    return FrequencyObservation(y, float(lam), d, type_tag, label)


def _observe(model: "Model", channels: list, snr, n: int, seed) -> SynchObservation:
    """``model``'s observation, one :func:`_channel` per (x, d, type_tag, label), at one
    snr or one per channel.  Noise streams are 1-based so that the cyclic-prior sampler
    and the group sampler over the same cyclic group share noise draws."""
    lam = _snr_list(snr, len(channels))
    freqs = tuple(_channel(x, lam[i], d, type_tag, make_rng(seed, _NOISE_STREAM, i + 1), label)
                  for i, (x, d, type_tag, label) in enumerate(channels))
    return SynchObservation(freqs, model.name, n, seed)


@_single_thread_blas()
def sample_gsynch_circle(L: int, snr, n: int, seed=None) -> SynchObservation:
    """Circle-prior observation with ``L`` frequency channels, all complex."""
    model = Model("circle", L=L)
    phases = np.angle(sample_signal("circle", n, seed).values)
    return _observe(model, [(np.exp(1j * ell * phases).reshape(-1, 1), 1, "complex",
                             f"freq-{ell}") for ell in range(1, L + 1)], snr, n, seed)


@_single_thread_blas()
def sample_gsynch_cyclic(L: int, snr, n: int, seed=None) -> SynchObservation:
    """Cyclic-prior observation over frequencies 1..floor(L/2).

    The list of frequencies is nonredundant: the trivial channel is dropped
    and one frequency per conjugate pair is kept, which leaves floor(L/2)
    channels with the top one real for even L.
    """
    model = Model("cyclic", L=L)
    u = sample_signal(("cyclic", L), n, seed).values
    roots = np.exp(2j * np.pi * np.arange(L) / L)
    return _observe(model, [(roots[(ell * u) % L].reshape(-1, 1), 1,
                             "real" if (2 * ell) % L == 0 else "complex", f"freq-{ell}")
                            for ell in range(1, L // 2 + 1)], snr, n, seed)


def _irrep_stack(irrep: Irrep, u: np.ndarray) -> np.ndarray:
    """Stack rho(u_1)..rho(u_n) vertically: shape (n * dim, dim)."""
    mats = irrep.matrices[u]
    return mats.reshape(len(u) * irrep.dim, irrep.dim)


@_single_thread_blas()
def sample_gsynch_group(group: FiniteGroup, irreps: IrrepList, snr, n: int,
                        seed=None) -> SynchObservation:
    """Observation per irrep in a nonredundant list, noise matched to type."""
    model = Model("group", group=group, irreps=irreps)
    u = sample_signal(("haar", group), n, seed).values
    return _observe(model, [(_irrep_stack(irrep, u), irrep.model_dim, irrep.type_tag,
                             irrep.name or f"irrep-{idx}") for idx, irrep in enumerate(irreps)],
                    snr, n, seed)


def _sample(model: "Model", snr, n: int, seed) -> SynchObservation:
    """Draw ``model``'s observation at ``snr``, one value or one per channel."""
    if model.kind == "circle":
        return sample_gsynch_circle(model.L, snr, n, seed)
    if model.kind == "cyclic":
        return sample_gsynch_cyclic(model.L, snr, n, seed)
    return sample_gsynch_group(model.group, model.irreps, snr, n, seed)


# ---------------------------------------------------------------------------
# Model specification used by detection and experiment sweeps
# ---------------------------------------------------------------------------

# Model.name's forms, and a bare circle or cyclic, the flag form that takes L apart
_NAME_RE = re.compile(r"(circle|cyclic)(?:\(L=(\d+)\))?|group\((.+)\)")


@dataclass(frozen=True)
class Model:
    """A named observation model with fixed signal strength.

    ``kind`` is "circle", "cyclic" or "group".  ``L`` is the number of
    frequencies (circle) or the prior order (cyclic); group models carry the
    group and a nonredundant irrep list.  ``snr`` is one finite,
    nonnegative signal strength shared by every channel.
    """

    kind: str
    L: int = None
    snr: float = 0.0
    group: FiniteGroup = None
    irreps: IrrepList = None

    def __post_init__(self):
        if self.kind not in ("circle", "cyclic", "group"):
            raise InvalidParameterError(f"unknown model kind {self.kind!r}")
        if self.kind in ("circle", "cyclic"):
            (ORDER if self.kind == "cyclic" else SIZE).check("L", self.L)
        NONNEGATIVE.check("snr", self.snr)
        if self.kind == "group":
            if self.group is None:
                raise InvalidParameterError("group model needs a group")
            if self.irreps is None:
                raise InvalidParameterError("group model needs an irrep list")
            if any(irrep.matrices.shape[0] != self.group.order for irrep in self.irreps):
                raise InvalidParameterError("irrep size does not match group order")
            if not self.irreps.is_nonredundant:
                raise InvalidParameterError("group model needs a nonredundant irrep list: "
                                            + self.irreps._redundancy)

    @classmethod
    def from_name(cls, name: str, L: int = None, snr: float = 0.0) -> "Model":
        """The model :attr:`name` calls ``name``, at ``snr``; also the flag form, a bare
        "circle" or "cyclic" (the only names that read ``L``) or a catalog group name."""
        m = _NAME_RE.fullmatch(name)
        if m is None or m.group(3) is not None:
            group, full = build_catalog(name if m is None else m.group(3))
            return cls("group", snr=snr, group=group, irreps=full.nonredundant())
        return cls(m.group(1), L=L if m.group(2) is None else int(m.group(2)), snr=snr)

    @property
    def name(self) -> str:
        """circle(L=k), cyclic(L=k) or group(<group name>): what an observation records."""
        return f"group({self.group.name})" if self.kind == "group" else f"{self.kind}(L={self.L})"

    def with_snr(self, snr: float) -> "Model":
        return Model(self.kind, self.L, float(NONNEGATIVE.check("snr", snr)), self.group,
                     self.irreps)

    def null(self) -> "Model":
        return self.with_snr(0.0)

    def sample(self, n: int, seed=None) -> SynchObservation:
        return _sample(self, self.snr, n, seed)

    def describe(self) -> str:
        return f"{self.name},snr={self.snr}"


# ---------------------------------------------------------------------------
# Noisy-indicator observations and their change of basis
# ---------------------------------------------------------------------------

def _plant(z: np.ndarray, group: FiniteGroup, u: np.ndarray, gamma: float) -> None:
    """Add gamma to z[k, j, u_k u_j^{-1}] for every pair (k, j), in place."""
    n = len(u)
    z[np.arange(n)[:, None], np.arange(n), group.mul[np.ix_(u, group.inverse[u])]] += gamma


def sample_indicator(group: FiniteGroup, n: int, gamma: float,
                     seed=None) -> IndicatorObservation:
    """Score tables z[k, j, g] = gamma * [g == u_k u_j^{-1}] + complex noise.

    Noise entries are independent standard complex Gaussians (real and
    imaginary parts each N(0, 1/2)) for every (k, j, g); gamma must be
    finite and nonnegative.
    """
    NONNEGATIVE.check("gamma", gamma)
    u = sample_signal(("haar", group), n, seed).values
    L = group.order
    rng = make_rng(seed, _NOISE_STREAM)
    z = (rng.standard_normal((n, n, L)) + 1j * rng.standard_normal((n, n, L))) / np.sqrt(2.0)
    _plant(z, group, u, gamma)
    return IndicatorObservation(z, float(gamma), u, n, seed)


@_single_thread_blas()
def indicator_to_canonical(obs: IndicatorObservation, group: FiniteGroup,
                           irreps: IrrepList) -> SynchObservation:
    """Change basis from score tables to per-irrep canonical observations.

    For each pair (k, j) the L x L matrix Y~[t, s] = z_kj(t s^{-1}) is
    conjugated by the unitary from :func:`regular_rep_unitary`; the first
    diagonal block belonging to each irrep is extracted and scaled by
    1/sqrt(n L), which makes the per-pair block equal in law to
    (snr/n) rho(u_k) rho(u_j)^{-1} plus independent Gaussian noise of
    entry variance 1/(n d).  The implied signal strength is
    snr = gamma * sqrt(n / L).

    Y~ = sum_g z_kj(g) P_g with P_g[t, s] = [t s^{-1} = g], so with R the
    irrep's d rows of the unitary every block is one contraction of the
    score tables against basis[g] = R P_g R* / sqrt(n L); no per-pair
    L x L matrix is formed.  Blocks for pairs k < j fill the upper block
    triangle and are mirrored; each diagonal block is Hermitized, so the
    result is exactly Hermitian.  The trivial irrep is dropped; both members
    of a conjugate pair are kept, since their score-table noises are
    independent.  The map is linear in the score tables.
    """
    L = group.order
    if obs.scores.shape != (obs.n, obs.n, L):
        raise InvalidParameterError("score table shape does not match the group")
    U = regular_rep_unitary(group, irreps)
    n = obs.n
    lam = obs.gamma * np.sqrt(n / L)

    ts_inv = group.mul[:, group.inverse]   # ts_inv[t, s] = t * s^{-1}
    perms = (ts_inv == np.arange(L)[:, None, None]).astype(float)   # P_g, (L, L, L)
    offsets = np.cumsum([0] + [r.dim ** 2 for r in irreps])
    lower = np.tril_indices(n, -1)
    diag = np.arange(n)

    out = []
    for ridx, irrep in enumerate(irreps):
        if irrep.is_trivial:
            continue
        d = irrep.dim
        rows = U[offsets[ridx]:offsets[ridx] + d]
        basis = rows @ perms @ rows.conj().T / np.sqrt(n * L)
        blocks = np.tensordot(obs.scores, basis, axes=(2, 0))      # (n, n, d, d)
        blocks[lower] = blocks[lower[1], lower[0]].conj().swapaxes(1, 2)
        b = blocks[diag, diag]
        blocks[diag, diag] = 0.5 * (b + b.conj().swapaxes(1, 2))
        y = blocks.swapaxes(1, 2).reshape(n * d, n * d)
        out.append(FrequencyObservation(y, float(lam), irrep.model_dim,
                                        irrep.type_tag, irrep.name or f"irrep-{ridx}"))
    return SynchObservation(tuple(out), f"indicator->{group.name}", n, obs.seed)
