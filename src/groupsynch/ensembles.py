"""Gaussian Hermitian random-matrix ensembles (orthogonal, unitary, symplectic).

Entry conventions:

  ensemble   shape          off-diagonal                    diagonal
  GOE        n x n real     N(0, 1)                         N(0, 2)
  GUE        n x n complex  N(0, 1/2) + i N(0, 1/2)         N(0, 1) real
  GSE        2n x 2n        2x2 quaternionic block          a * I_2,
             complex        [[a+bi, c+di], [-c+di, a-bi]],  a ~ N(0, 1/2)
                            a,b,c,d ~ N(0, 1/4)

Hermiticity is exact by construction: the strict upper triangle (or upper
block triangle) is drawn and mirrored, never symmetrized after the fact.
The draw fills the strict upper triangle in one boolean-mask assignment,
row-major, the order of ``np.triu_indices``.  The mirror then walks the
upper block triangle in square tiles of 256 (``eigen._tiles``): each
off-diagonal tile's conjugate transpose is copied onto its lower partner,
and each diagonal tile copies its own strict upper part onto its strict
lower part.  No triangle index arrays and no full transposed copy are
made, and the tiles stay in cache at large n.
Sampling is a pure function of (kind, seed) via counter-based Philox streams.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .eigen import _tiles, top_eigenvalue
from .errors import InvalidParameterError
from .rng import make_rng, spawn_seeds

__all__ = [
    "EnsembleKind",
    "NoiseMatrix",
    "sample",
    "sample_goe",
    "sample_gue",
    "sample_gse",
    "spectral_edge_check",
]

_TAGS = ("GOE", "GUE", "GSE")


@dataclass(frozen=True)
class EnsembleKind:
    tag: str
    n: int

    def __post_init__(self):
        if self.tag not in _TAGS:
            raise InvalidParameterError(f"unknown ensemble tag {self.tag!r}")
        if self.n < 1:
            raise InvalidParameterError("matrix size parameter must be >= 1")

    @property
    def shape(self):
        m = 2 * self.n if self.tag == "GSE" else self.n
        return (m, m)


@dataclass(frozen=True)
class NoiseMatrix:
    entries: np.ndarray
    kind: EnsembleKind
    seed: int


def _mirror_upper(w: np.ndarray) -> np.ndarray:
    """Set w[j, i] = conj(w[i, j]) for every i < j, tile by tile; returns ``w``."""
    for rows, cols in _tiles(len(w)):
        if rows == cols:
            k = rows.stop - rows.start
            np.copyto(w[rows, rows], w[rows, rows].conj().T,
                      where=np.tri(k, k, -1, dtype=bool))
        else:
            w[cols, rows] = w[rows, cols].conj().T
    return w


def sample_goe(n: int, rng: np.random.Generator) -> np.ndarray:
    w = np.zeros((n, n))
    w[~np.tri(n, dtype=bool)] = rng.standard_normal(n * (n - 1) // 2)
    w[np.diag_indices(n)] = np.sqrt(2.0) * rng.standard_normal(n)
    return _mirror_upper(w)


def sample_gue(n: int, rng: np.random.Generator) -> np.ndarray:
    m = n * (n - 1) // 2
    vals = np.empty(m, dtype=complex)
    vals.real = rng.standard_normal(m)
    vals.imag = rng.standard_normal(m)
    np.divide(vals, np.sqrt(2.0), out=vals)
    w = np.zeros((n, n), dtype=complex)
    w[~np.tri(n, dtype=bool)] = vals
    w[np.diag_indices(n)] = rng.standard_normal(n)
    return _mirror_upper(w)


def sample_gse(n: int, rng: np.random.Generator) -> np.ndarray:
    """2n x 2n Hermitian matrix of quaternionic blocks.

    One draw of n + 2n(n-1) normals, read row by row: a_i, then four
    coefficients for each block (i, j > i), as a per-row loop would draw them.
    """
    per_row = 1 + 4 * (n - 1 - np.arange(n))
    z = rng.standard_normal(per_row.sum())
    starts = np.cumsum(per_row) - per_row
    q = 0.5 * np.delete(z, starts).reshape(-1, 4)  # std of each coefficient, variance 1/4
    top, off = q[:, 0] + 1j * q[:, 1], q[:, 2] + 1j * q[:, 3]
    w = np.zeros((2 * n, 2 * n), dtype=complex)
    blocks = w.reshape(n, 2, n, 2).swapaxes(1, 2)     # view: blocks[i, j] = block (i, j)
    blocks[~np.tri(n, dtype=bool)] = np.stack(
        [top, off, -off.conj(), top.conj()], axis=-1).reshape(-1, 2, 2)
    w[np.diag_indices(2 * n)] = np.repeat(np.sqrt(0.5) * z[starts], 2)
    return _mirror_upper(w)


_SAMPLERS = {"GOE": sample_goe, "GUE": sample_gue, "GSE": sample_gse}


def sample(kind: EnsembleKind, seed: int) -> NoiseMatrix:
    """Draw one noise matrix; deterministic given (kind, seed)."""
    rng = make_rng(seed, _TAGS.index(kind.tag), kind.n)
    return NoiseMatrix(_SAMPLERS[kind.tag](kind.n, rng), kind, seed)


def spectral_edge_check(kind: EnsembleKind, trials: int, seed: int):
    """Monte-Carlo mean and standard error of lambda_max(W)/sqrt(n).

    Under the conventions above the bulk spectrum of W/sqrt(n) fills
    [-2, 2] for each ensemble, so the mean should sit near 2 for large n.
    """
    if kind.n < 1:
        raise InvalidParameterError("n must be >= 1")
    if trials < 1:
        raise InvalidParameterError("need at least one trial")
    vals = np.empty(trials)
    for t, s in enumerate(spawn_seeds(seed, trials)):
        w = sample(kind, s).entries
        vals[t] = top_eigenvalue(w) / np.sqrt(kind.n)
    se = vals.std(ddof=1) / np.sqrt(trials) if trials > 1 else float("nan")
    return float(vals.mean()), float(se)
