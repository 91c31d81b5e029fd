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
The private drawers ``_upper_goe``, ``_upper_gue`` and ``_upper_gse`` fill
the diagonal and the strict upper triangle, row-major in the order of
``np.triu_indices``, through one boolean-mask assignment, and leave the
strict lower triangle zero.  ``sample_goe``, ``sample_gue`` and
``sample_gse`` are those draws followed by :func:`_mirror_upper`, which
walks the upper block triangle in square tiles of 256 (``eigen._tiles``):
each off-diagonal tile's conjugate transpose is copied onto its lower
partner, and each diagonal tile copies its own strict upper part onto its
strict lower part (:func:`_mirror_tile`).  No triangle index arrays and no
full transposed copy are made, and the tiles stay in cache at large n.  The
observation samplers in ``models`` take the unmirrored draws and mirror
each tile in the same pass that scales it and adds the signal.
Sampling is a pure function of (kind, seed) via counter-based Philox streams.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._rules import SIZE
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
        SIZE.check("n", self.n)


@dataclass(frozen=True)
class NoiseMatrix:
    entries: np.ndarray
    kind: EnsembleKind
    seed: int


def _mirror_tile(w: np.ndarray, rows: slice, cols: slice) -> None:
    """Copy upper tile (rows, cols)'s conjugate transpose onto (cols, rows).

    On a diagonal tile (rows == cols) only the strict upper part is copied,
    onto the strict lower part; the diagonal is left as it is.
    """
    if rows == cols:
        k = rows.stop - rows.start
        np.copyto(w[rows, rows], w[rows, rows].conj().T, where=np.tri(k, k, -1, dtype=bool))
    else:
        w[cols, rows] = w[rows, cols].conj().T


def _mirror_upper(w: np.ndarray) -> np.ndarray:
    """Set w[j, i] = conj(w[i, j]) for every i < j, tile by tile; returns ``w``."""
    for rows, cols in _tiles(len(w)):
        _mirror_tile(w, rows, cols)
    return w


def _upper_goe(n: int, rng: np.random.Generator) -> np.ndarray:
    w = np.zeros((n, n))
    w[~np.tri(n, dtype=bool)] = rng.standard_normal(n * (n - 1) // 2)
    w[np.diag_indices(n)] = np.sqrt(2.0) * rng.standard_normal(n)
    return w


def _upper_gue(n: int, rng: np.random.Generator) -> np.ndarray:
    m = n * (n - 1) // 2
    vals = np.empty(m, dtype=complex)
    vals.real = rng.standard_normal(m)
    vals.imag = rng.standard_normal(m)
    np.divide(vals, np.sqrt(2.0), out=vals)
    w = np.zeros((n, n), dtype=complex)
    w[~np.tri(n, dtype=bool)] = vals
    w[np.diag_indices(n)] = rng.standard_normal(n)
    return w


def _upper_gse(n: int, rng: np.random.Generator) -> np.ndarray:
    """Diagonal and upper block triangle of a 2n x 2n quaternionic matrix.

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
    return w


def sample_goe(n: int, rng: np.random.Generator) -> np.ndarray:
    return _mirror_upper(_upper_goe(SIZE.check("n", n), rng))


def sample_gue(n: int, rng: np.random.Generator) -> np.ndarray:
    return _mirror_upper(_upper_gue(SIZE.check("n", n), rng))


def sample_gse(n: int, rng: np.random.Generator) -> np.ndarray:
    """2n x 2n Hermitian matrix of quaternionic blocks (see ``_upper_gse``)."""
    return _mirror_upper(_upper_gse(SIZE.check("n", n), rng))


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
    SIZE.check("trials", trials)
    vals = np.empty(trials)
    for t, s in enumerate(spawn_seeds(seed, trials)):
        w = sample(kind, s).entries
        vals[t] = top_eigenvalue(w) / np.sqrt(kind.n)
    se = vals.std(ddof=1) / np.sqrt(trials) if trials > 1 else float("nan")
    return float(vals.mean()), float(se)
