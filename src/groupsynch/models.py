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

A second observation family gives, for every ordered pair (k, j), a noisy
score table over group elements with a planted bump at the true relative
element; :func:`indicator_to_canonical` changes basis with the regular
representation and recovers the per-irrep observations above.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ensembles
from .eigen import _tiles
from .errors import InvalidParameterError
from .groups import FiniteGroup, Irrep, IrrepList, build_cyclic, regular_rep_unitary
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


_NOISE = {"real": ensembles.sample_goe, "complex": ensembles.sample_gue,
          "quaternionic": ensembles.sample_gse}


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


def sample_signal(prior, n: int, seed=None, rng=None) -> SignalVector:
    """Draw an i.i.d. signal from ``prior``.

    ``prior`` is "circle", ("cyclic", L), or ("haar", group).  Circle values
    are unit-modulus complex numbers; finite priors return element indices.
    """
    if n < 1:
        raise InvalidParameterError("signal length must be >= 1")
    rng = rng if rng is not None else make_rng(seed, _SIGNAL_STREAM)
    if prior == "circle":
        phases = rng.uniform(0.0, 2.0 * np.pi, size=n)
        return SignalVector(np.exp(1j * phases), "circle", n)
    kind, arg = prior
    if kind == "cyclic":
        return SignalVector(rng.integers(0, int(arg), size=n), f"cyclic({arg})", n)
    if kind == "haar":
        group: FiniteGroup = arg
        return SignalVector(rng.integers(0, group.order, size=n), f"haar({group.name})", n)
    raise InvalidParameterError(f"unknown prior {prior!r}")


def _snr_list(snr, count: int) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(snr, dtype=float))
    if arr.size == 1:
        arr = np.repeat(arr, count)
    if arr.size != count:
        raise InvalidParameterError(f"need {count} snr values, got {arr.size}")
    if not np.isfinite(arr).all():
        raise InvalidParameterError("snr values must be finite")
    if (arr < 0).any():
        raise InvalidParameterError("snr values must be nonnegative")
    return arr


def _channel(x: np.ndarray, lam: float, d: int, type_tag: str, rng,
             label: str) -> FrequencyObservation:
    """(lam/n) X X* plus the type's noise ensemble of size n d, scaled by 1/sqrt(n d).

    ``x`` stacks n square signal blocks vertically (1 x 1 for the circle and
    cyclic priors).  The noise is scaled in place, then the signal is added
    over the tiles of the upper block triangle (``eigen._tiles``): on tile
    (I, J) it is 0.5 (A + B*) with A = (lam/n) X_I X_J* and B the same
    product for (J, I), which cancels the 1-ulp asymmetry of floating outer
    products (B = A on diagonal tiles), and the tile's conjugate transpose
    is copied onto (J, I).  The noise is mirrored at construction, so the
    observation is exactly Hermitian, and no n x n temporary is formed.
    Every sampler goes through these per-tile matmuls, so the cyclic and
    group samplers of the same prior agree bit for bit.
    """
    n = x.shape[0] // x.shape[1]
    y = _NOISE[type_tag](n * d, rng)
    np.divide(y, np.sqrt(n * d), out=y)
    xh = x.conj()
    for rows, cols in _tiles(len(y)):
        a = (lam / n) * (x[rows] @ xh[cols].T)
        b = a if rows == cols else (lam / n) * (x[cols] @ xh[rows].T)
        sig = 0.5 * (a + b.conj().T)
        y[rows, cols] += sig.real if type_tag == "real" else sig
        if rows != cols:
            y[cols, rows] = y[rows, cols].conj().T
    return FrequencyObservation(y, float(lam), d, type_tag, label)


def sample_gsynch_circle(L: int, snr, n: int, seed=None, signal=None) -> SynchObservation:
    """Circle-prior observation with ``L`` frequency channels, all complex."""
    if L < 1:
        raise InvalidParameterError("need at least one frequency")
    lam = _snr_list(snr, L)
    if signal is None:
        signal = sample_signal("circle", n, seed)
    phases = np.angle(signal.values)
    freqs = tuple(
        _channel(np.exp(1j * ell * phases).reshape(-1, 1), lam[ell - 1], 1, "complex",
                 make_rng(seed, _NOISE_STREAM, ell), f"freq-{ell}")
        for ell in range(1, L + 1))
    return SynchObservation(freqs, f"circle(L={L})", n, seed)


def sample_gsynch_cyclic(L: int, snr, n: int, seed=None, signal=None) -> SynchObservation:
    """Cyclic-prior observation over frequencies 1..floor(L/2).

    The list of frequencies is nonredundant: the trivial channel is dropped
    and one frequency per conjugate pair is kept, which leaves floor(L/2)
    channels with the top one real for even L.
    """
    if L < 2:
        raise InvalidParameterError("cyclic prior needs L >= 2")
    nfreq = L // 2
    lam = _snr_list(snr, nfreq)
    if signal is None:
        signal = sample_signal(("cyclic", L), n, seed)
    u = signal.values
    roots = np.exp(2j * np.pi * np.arange(L) / L)
    freqs = tuple(
        _channel(roots[(ell * u) % L].reshape(-1, 1), lam[ell - 1], 1,
                 "real" if (2 * ell) % L == 0 else "complex",
                 make_rng(seed, _NOISE_STREAM, ell), f"freq-{ell}")
        for ell in range(1, nfreq + 1))
    return SynchObservation(freqs, f"cyclic(L={L})", n, seed)


def _irrep_stack(irrep: Irrep, u: np.ndarray) -> np.ndarray:
    """Stack rho(u_1)..rho(u_n) vertically: shape (n * dim, dim)."""
    mats = irrep.matrices[u]
    return mats.reshape(len(u) * irrep.dim, irrep.dim)


def sample_gsynch_group(group: FiniteGroup, irreps: IrrepList, snr, n: int,
                        seed=None, signal=None) -> SynchObservation:
    """Observation per irrep in a nonredundant list, noise matched to type."""
    if irreps.mode != "nonredundant":
        raise InvalidParameterError("sampler expects a nonredundant irrep list")
    lam = _snr_list(snr, len(irreps))
    if signal is None:
        signal = sample_signal(("haar", group), n, seed)
    u = signal.values
    if u.max(initial=0) >= group.order:
        raise InvalidParameterError("signal indices out of range for the group")
    if any(irrep.matrices.shape[0] != group.order for irrep in irreps):
        raise InvalidParameterError("irrep size does not match group order")
    # channel streams are 1-based so that the cyclic-prior sampler and
    # the group sampler over the same cyclic group share noise draws
    freqs = tuple(
        _channel(_irrep_stack(irrep, u), lam[idx], irrep.model_dim, irrep.type_tag,
                 make_rng(seed, _NOISE_STREAM, idx + 1), irrep.name or f"irrep-{idx}")
        for idx, irrep in enumerate(irreps))
    return SynchObservation(freqs, f"group({group.name})", n, seed)


# ---------------------------------------------------------------------------
# Model specification used by detection and experiment sweeps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Model:
    """A named observation model with fixed signal strength.

    ``kind`` is "circle", "cyclic" or "group".  ``L`` is the number of
    frequencies (circle) or the prior order (cyclic); group models carry the
    group and a nonredundant irrep list.
    """

    kind: str
    L: int = None
    snr: float = 0.0
    group: FiniteGroup = None
    irreps: IrrepList = None

    def __post_init__(self):
        if self.kind not in ("circle", "cyclic", "group"):
            raise InvalidParameterError(f"unknown model kind {self.kind!r}")
        if self.kind in ("circle", "cyclic") and (self.L is None or self.L < 1):
            raise InvalidParameterError("model needs L >= 1")
        if self.kind == "cyclic" and self.L < 2:
            raise InvalidParameterError("cyclic model needs L >= 2")
        if self.kind == "group":
            if self.group is None:
                raise InvalidParameterError("group model needs a group")
            if self.irreps is None:
                raise InvalidParameterError("group model needs an irrep list")

    def with_snr(self, snr: float) -> "Model":
        return Model(self.kind, self.L, float(snr), self.group, self.irreps)

    def null(self) -> "Model":
        return self.with_snr(0.0)

    def sample(self, n: int, seed=None) -> SynchObservation:
        if self.kind == "circle":
            return sample_gsynch_circle(self.L, self.snr, n, seed)
        if self.kind == "cyclic":
            return sample_gsynch_cyclic(self.L, self.snr, n, seed)
        return sample_gsynch_group(self.group, self.irreps, self.snr, n, seed)

    def describe(self) -> str:
        base = {"circle": f"circle(L={self.L})",
                "cyclic": f"cyclic(L={self.L})"}.get(self.kind)
        if base is None:
            base = f"group({self.group.name})"
        return f"{base},snr={self.snr}"


def cyclic_group_model(L: int, snr: float) -> Model:
    """Cyclic model expressed through the general group sampler (for cross-checks)."""
    group, full = build_cyclic(L)
    return Model("group", L=None, snr=snr, group=group, irreps=full.nonredundant())


# ---------------------------------------------------------------------------
# Noisy-indicator observations and their change of basis
# ---------------------------------------------------------------------------

def sample_indicator(group: FiniteGroup, n: int, gamma: float, seed=None,
                     signal=None) -> IndicatorObservation:
    """Score tables z[k, j, g] = gamma * [g == u_k u_j^{-1}] + complex noise.

    Noise entries are independent standard complex Gaussians (real and
    imaginary parts each N(0, 1/2)) for every (k, j, g).
    """
    if gamma < 0:
        raise InvalidParameterError("gamma must be nonnegative")
    if signal is None:
        signal = sample_signal(("haar", group), n, seed)
    u = signal.values
    L = group.order
    rng = make_rng(seed, _NOISE_STREAM)
    z = (rng.standard_normal((n, n, L)) + 1j * rng.standard_normal((n, n, L))) / np.sqrt(2.0)
    rel = group.mul[np.ix_(u, group.inverse[u])]
    k_idx, j_idx = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    z[k_idx, j_idx, rel] += gamma
    return IndicatorObservation(z, float(gamma), u, n, seed)


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
    if irreps.mode != "full":
        raise InvalidParameterError("change of basis needs the full irrep list")
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
