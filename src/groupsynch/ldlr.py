"""Low-degree likelihood-ratio second moments, by four independent routes.

For the models in :mod:`groupsynch.models` the squared norm of the
degree-<=D projection of the likelihood ratio has the form

    sum_{d=0}^{D} (1/d!) * E[ omega^d ],

where ``omega`` is a per-sample overlap statistic of two independent signal
draws (reduced by prior symmetry to a single draw).  For finite priors of
order L the overlap is a polynomial in the occupancy counts n_0..n_{L-1}
of the signal, so the expectation can be evaluated exactly against the
multinomial law of the counts.  Two count statistics appear:

  * ``pearson``: s = (L * sum n_g^2 - n^2) / 2, the chi-square-type
    quadratic form that corresponds to the nonredundant frequency list
    (trivial channel dropped, one channel per conjugate pair);
  * ``all_frequencies``: s = L * sum n_g^2, corresponding to the redundant
    list of all L cyclic frequency channels including the trivial one.
    This is the statistic whose moments equal the tuple-family counts of
    :func:`md_count`, degree by degree.

Routes:

  * :func:`ldlr_exact_multinomial` enumerates count vectors (exact
    rationals or compensated log-space floats);
  * :func:`ldlr_bruteforce_signals` enumerates all L^n signal assignments
    (the independent oracle for the multinomial route);
  * :func:`ldlr_from_md` counts zero-sum index tuples, which fixes the
    moments of the ``all_frequencies`` statistic without touching the
    multinomial law (and is the exact route for the circle prior);
  * :func:`ldlr_montecarlo_overlap` averages the overlap series over
    sampled signals and reports a bootstrap standard error.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.special import gammaln, logsumexp

from .errors import (DivergentSeriesError, InvalidParameterError,
                     NumericalOverflowError, ResourceLimitError)
from .groups import FiniteGroup, IrrepList
from .models import Model
from .rng import make_rng

__all__ = [
    "LdlrReport",
    "MomentTable",
    "OverlapSample",
    "s_stat",
    "all_freq_stat",
    "first_moment_via_binomial",
    "moment_table",
    "ldlr_exact_multinomial",
    "ldlr_bruteforce_signals",
    "md_count",
    "ldlr_from_md",
    "ldlr_montecarlo_overlap",
    "sample_overlaps",
    "group_overlap_stat",
    "bound_polylog",
    "polylog_neg",
]

DEFAULT_BUDGET = 10 ** 7


@dataclass(frozen=True)
class LdlrReport:
    """Per-degree terms t_d and their cumulative sum, with provenance."""

    terms: tuple
    method: str
    params: dict
    stderr: tuple = None

    def __post_init__(self):
        if len(self.terms) == 0:
            raise InvalidParameterError("report needs at least the degree-0 term")

    @property
    def cumulative(self):
        return sum(self.terms)

    @property
    def degree(self) -> int:
        return len(self.terms) - 1

    def partial_sums(self):
        out, acc = [], 0
        for t in self.terms:
            acc += t
            out.append(acc)
        return out


# ---------------------------------------------------------------------------
# Count statistics
# ---------------------------------------------------------------------------

def _check_counts(counts):
    counts = list(counts)
    if any((not float(c).is_integer()) or c < 0 for c in counts):
        raise InvalidParameterError("counts must be nonnegative integers")
    return [int(c) for c in counts]


def s_stat(counts):
    """Quadratic overlap statistic of a count vector, as an exact Fraction.

    Equals (L/2) * sum_g (n_g - n/L)^2, and also
    ((L-1)/2) * sum n_g^2 - (1/2) * sum_{g != f} n_g n_f; the two forms
    agree exactly in rational arithmetic.
    """
    counts = _check_counts(counts)
    L = len(counts)
    n = sum(counts)
    return Fraction(L * sum(c * c for c in counts) - n * n, 2)


def all_freq_stat(counts):
    """Overlap statistic of the redundant all-frequency channel list: L * sum n_g^2."""
    counts = _check_counts(counts)
    return len(counts) * sum(c * c for c in counts)


def _twice_stat(counts, L, statistic):
    """2 * statistic as an integer (both statistics are half-integers at worst)."""
    q = L * sum(c * c for c in counts)
    n = sum(counts)
    return q - n * n if statistic == "pearson" else 2 * q


def _check_statistic(statistic):
    if statistic not in ("pearson", "all_frequencies"):
        raise InvalidParameterError(f"unknown statistic {statistic!r}")


def first_moment_via_binomial(L: int, n: int, exact: bool = True):
    """E[s] for the ``pearson`` statistic, by enumerating binomial marginals.

    Sums (L/2) * E (n_g - n/L)^2 over g using the exact Binomial(n, 1/L)
    law of each count; independent of the closed form n(L-1)/2.
    """
    if exact:
        # integer accumulation of sum_k C(n,k) (L-1)^(n-k) (kL - n)^2, then
        # E[s] = L * (L/2) * E(n_g - n/L)^2 = num / (2 L^n)
        num = 0
        comb = 1
        pw = (L - 1) ** n
        for k in range(n + 1):
            num += comb * pw * (k * L - n) ** 2
            comb = comb * (n - k) // (k + 1)
            if L > 1:
                pw //= (L - 1)
        return Fraction(num, 2 * L ** n)
    from scipy.stats import binom
    ks = np.arange(n + 1)
    mom = math.fsum(binom.pmf(ks, n, 1.0 / L) * (ks - n / L) ** 2)
    return 0.5 * L * L * mom


@dataclass(frozen=True)
class MomentTable:
    """Moments E[s^d] of a count statistic for d = 0..D."""

    moments: tuple
    L: int
    n: int
    statistic: str = "pearson"

    def __post_init__(self):
        if len(self.moments) == 0 or self.moments[0] != 1:
            raise InvalidParameterError("a moment table starts with E[s^0] = 1")
        if any(m < 0 for m in self.moments):
            raise InvalidParameterError("moments of a nonnegative statistic")

    def __getitem__(self, d):
        return self.moments[d]

    @property
    def degree(self) -> int:
        return len(self.moments) - 1


def moment_table(L: int, n: int, D: int, exact: bool = False,
                 statistic: str = "pearson",
                 budget: int = DEFAULT_BUDGET) -> MomentTable:
    """Exact moments of the count statistic under the multinomial law."""
    rep = ldlr_exact_multinomial(L, n, 1.0, D, exact=exact, statistic=statistic,
                                 budget=budget)
    scale = Fraction(1) if exact else 1.0
    moments = [scale * 1]
    for d in range(1, D + 1):
        factor = (Fraction(n) ** d * math.factorial(d)) if exact \
            else float(n) ** d * math.factorial(d)
        moments.append(rep.terms[d] * factor)
    return MomentTable(tuple(moments), L, n, statistic)


# ---------------------------------------------------------------------------
# Exact multinomial route
# ---------------------------------------------------------------------------

def _count_vectors(L: int, n: int, budget: int) -> np.ndarray:
    total = math.comb(n + L - 1, L - 1)
    if total > budget:
        raise ResourceLimitError(
            f"{total} count vectors exceed the budget of {budget}")
    bars = np.fromiter(
        itertools.chain.from_iterable(
            itertools.combinations(range(n + L - 1), L - 1)),
        dtype=np.int64, count=total * (L - 1)).reshape(total, L - 1)
    edges = np.empty((total, L + 1), dtype=np.int64)
    edges[:, 0] = -1
    edges[:, 1:L] = bars
    edges[:, L] = n + L - 1
    return np.diff(edges, axis=1) - 1


def _lam_pow(lam, d, exact):
    if exact:
        return Fraction(lam) ** (2 * d)
    return float(lam) ** (2 * d)


def ldlr_exact_multinomial(L: int, n: int, lam, D: int, exact: bool = False,
                           statistic: str = "pearson",
                           budget: int = DEFAULT_BUDGET) -> LdlrReport:
    """Terms t_d = lam^(2d) / (n^d d!) * E[s^d] by count-vector enumeration.

    ``exact=True`` uses big rationals throughout (multinomial weights
    n! / (prod n_g!) / L^n); the float path evaluates log(weight * s^d)
    per vector and reduces with log-sum-exp, so large n and d stay finite.
    """
    _check_statistic(statistic)
    if L < 2 or n < 1 or D < 0 or float(lam) < 0:
        raise InvalidParameterError("need L >= 2, n >= 1, D >= 0, lam >= 0")
    vectors = _count_vectors(L, n, budget)
    params = {"L": L, "n": n, "lam": float(lam), "D": D, "statistic": statistic,
              "exact": exact}

    if exact:
        twice_s = [_twice_stat(v, L, statistic) for v in vectors]
        weights = []
        for v in vectors:
            coeff = 1
            rem = n
            for c in v[:-1]:
                coeff *= math.comb(rem, int(c))
                rem -= int(c)
            weights.append(Fraction(coeff, L ** n))
        terms = [Fraction(1)]
        moment = [Fraction(1)] * len(vectors)
        for d in range(1, D + 1):
            moment = [m * Fraction(int(t), 2) for m, t in zip(moment, twice_s)]
            e_sd = sum(w * m for w, m in zip(weights, moment))
            terms.append(_lam_pow(lam, d, True) * e_sd
                         / (Fraction(n) ** d * math.factorial(d)))
        return LdlrReport(tuple(terms), "exact-multinomial", params)

    vals = vectors.astype(np.float64)
    logw = (gammaln(n + 1) - gammaln(vals + 1).sum(axis=1) - n * np.log(L))
    # counts are <= n <= 1e4ish, so the integer statistic stays exact in int64
    q = L * (vectors * vectors).sum(axis=1)
    s = (0.5 * (q - n * n) if statistic == "pearson" else q).astype(np.float64)
    pos = s > 0
    logs = np.log(s[pos])
    logw_pos = logw[pos]
    lam = float(lam)
    terms = [1.0]
    for d in range(1, D + 1):
        if not pos.any():
            terms.append(0.0)
            continue
        log_e_sd = logsumexp(logw_pos + d * logs)
        log_td = (2 * d * np.log(lam) if lam > 0 else -np.inf) \
            + log_e_sd - d * np.log(n) - gammaln(d + 1)
        td = float(np.exp(log_td))
        if not np.isfinite(td):
            raise NumericalOverflowError(
                f"term {d} overflowed; rerun with exact=True")
        terms.append(td)
    return LdlrReport(tuple(terms), "exact-multinomial", params)


# ---------------------------------------------------------------------------
# Brute-force signal enumeration (independent oracle)
# ---------------------------------------------------------------------------

def ldlr_bruteforce_signals(L: int, n: int, lam, D: int, exact: bool = True,
                            statistic: str = "pearson",
                            budget: int = DEFAULT_BUDGET) -> LdlrReport:
    """Average s^d over all L^n equally likely signal assignments.

    Deliberately naive: iterates every assignment, tallies its counts and
    accumulates integer powers, so it shares no code path with the
    multinomial weights it is used to check.
    """
    _check_statistic(statistic)
    if L < 2 or n < 1 or D < 0 or float(lam) < 0:
        raise InvalidParameterError("need L >= 2, n >= 1, D >= 0, lam >= 0")
    total = L ** n
    if total > budget:
        raise ResourceLimitError(f"{total} assignments exceed the budget of {budget}")
    sums = [0] * (D + 1)  # sums of (2s)^d as exact integers
    for assign in itertools.product(range(L), repeat=n):
        counts = [0] * L
        for a in assign:
            counts[a] += 1
        ts = _twice_stat(counts, L, statistic)
        acc = 1
        sums[0] += 1
        for d in range(1, D + 1):
            acc *= ts
            sums[d] += acc
    params = {"L": L, "n": n, "lam": float(lam), "D": D, "statistic": statistic,
              "exact": exact}
    terms = [Fraction(1) if exact else 1.0]
    for d in range(1, D + 1):
        e_sd = Fraction(sums[d], 2 ** d * total)
        td = _lam_pow(lam, d, True) * e_sd / (Fraction(n) ** d * math.factorial(d))
        terms.append(td if exact else float(td))
    return LdlrReport(tuple(terms), "brute-force", params)


# ---------------------------------------------------------------------------
# Tuple-family counting
# ---------------------------------------------------------------------------

MD_BUDGET = 10 ** 8


def md_count(prior: str, L: int, n: int, d: int, budget: int = MD_BUDGET) -> int:
    """Number of tuples (l, a, b) in [L]^d x [n]^d x [n]^d whose signed
    index sum sum_j l_j (e_{a_j} - e_{b_j}) vanishes.

    ``prior="circle"`` tests exact zero over the integers; ``prior="cyclic"``
    tests zero mod L.  Every exact zero is a zero mod L, so the circle count
    never exceeds the cyclic count.

    The enumeration is exhaustive over the (L n^2)^d tuples but walks them
    one position at a time, merging equal partial sums, so memory stays
    proportional to the number of distinct partial sums rather than to the
    tuple count.  The final position is resolved by joining each degree
    d-1 partial sum with the moves that cancel it.
    """
    if prior not in ("circle", "cyclic"):
        raise InvalidParameterError(f"unknown prior {prior!r}")
    if L < 1 or n < 1 or d < 0:
        raise InvalidParameterError("need L >= 1, n >= 1, d >= 0")
    if (L * n * n) ** d > budget:
        raise ResourceLimitError(
            f"(L n^2)^d = {(L * n * n) ** d} exceeds the budget of {budget}")
    if d == 0:
        return 1

    def reduce(vec: np.ndarray) -> bytes:
        return (np.mod(vec, L) if prior == "cyclic" else vec).tobytes()

    moves = []
    for ell in range(1, L + 1):
        for a in range(n):
            for b in range(n):
                v = np.zeros(n, dtype=np.int64)
                v[a] += ell
                v[b] -= ell
                moves.append(v)
    move_counts: dict = {}
    for v in moves:
        key = reduce(v)
        move_counts[key] = move_counts.get(key, 0) + 1

    partial = {reduce(np.zeros(n, dtype=np.int64)): (1, np.zeros(n, dtype=np.int64))}
    for _ in range(d - 1):
        nxt: dict = {}
        for _, (count, vec) in partial.items():
            for mv in moves:
                s = vec + mv
                key = reduce(s)
                if key in nxt:
                    nxt[key] = (nxt[key][0] + count, nxt[key][1])
                else:
                    nxt[key] = (count, s)
        partial = nxt

    total = 0
    for _, (count, vec) in partial.items():
        key = reduce(-vec)
        total += count * move_counts.get(key, 0)
    return total


def ldlr_from_md(prior: str, L: int, n: int, lam, D: int, exact: bool = False,
                 budget: int = MD_BUDGET) -> LdlrReport:
    """Terms t_d = lam^(2d) / (n^d d!) * |tuple family of degree d|.

    For the circle prior this is the exact second moment of the degree-D
    likelihood-ratio projection with L frequency channels.  For the cyclic
    prior it equals the ``all_frequencies`` multinomial route, term by term.
    """
    counts = [md_count(prior, L, n, d, budget) for d in range(D + 1)]
    params = {"L": L, "n": n, "lam": float(lam), "D": D, "prior": prior}
    terms = []
    for d, c in enumerate(counts):
        td = _lam_pow(lam, d, True) * c / (Fraction(n) ** d * math.factorial(d))
        terms.append(td if exact else float(td))
    return LdlrReport(tuple(terms), "md-count", params)


# ---------------------------------------------------------------------------
# Monte-Carlo overlap route
# ---------------------------------------------------------------------------

def group_overlap_stat(group: FiniteGroup, irreps: IrrepList, counts) -> float:
    """Overlap statistic via irrep matrices: sum_rho (beta_rho d_rho / 2) *
    ||sum_g n_g rho(g)||_F^2 over a nonredundant list.

    ``beta`` is 1 for real type and 2 otherwise; ``d_rho`` is the model
    dimension.  For every finite group this equals the ``pearson`` count
    statistic, which the tests exercise as a consistency check between the
    representation-based and count-based evaluations.
    """
    if irreps.mode != "nonredundant":
        raise InvalidParameterError("overlap expects a nonredundant irrep list")
    counts = np.asarray(counts, dtype=float)
    total = 0.0
    for irrep in irreps:
        beta = 1.0 if irrep.type_tag == "real" else 2.0
        fhat = np.tensordot(counts, irrep.matrices, axes=(0, 0))
        total += 0.5 * beta * irrep.model_dim * float((np.abs(fhat) ** 2).sum())
    return total


@dataclass(frozen=True)
class OverlapSample:
    """Per-sample overlaps omega of two independent signal draws.

    ``beta_weights`` records the (label, beta, dim) coefficient triple of
    every frequency channel entering the overlap; beta is 1 for real-type
    channels and 2 otherwise.
    """

    values: np.ndarray
    beta_weights: tuple
    model: str
    n: int


def sample_overlaps(model: Model, n: int, samples: int, seed=None) -> OverlapSample:
    """Draw i.i.d. signals and evaluate the per-sample overlap statistic.

    Uses the symmetry reduction that replaces the second, independent signal
    draw by a fixed reference point, valid for every prior considered here.
    """
    rng = make_rng(seed, 71)
    lam2_over_n = model.snr ** 2 / n
    if model.kind == "circle":
        phases = rng.uniform(0.0, 2.0 * np.pi, size=(samples, n))
        stat = np.zeros(samples)
        for ell in range(1, model.L + 1):
            stat += np.abs(np.exp(1j * ell * phases).sum(axis=1)) ** 2
        weights = tuple((f"freq-{ell}", 2, 1) for ell in range(1, model.L + 1))
    elif model.kind == "cyclic":
        u = rng.integers(0, model.L, size=(samples, n))
        counts = np.stack([(u == g).sum(axis=1) for g in range(model.L)], axis=1)
        stat = 0.5 * (model.L * (counts.astype(float) ** 2).sum(axis=1)
                      - float(n) ** 2)
        weights = tuple((f"freq-{ell}", 1 if (2 * ell) % model.L == 0 else 2, 1)
                        for ell in range(1, model.L // 2 + 1))
    else:
        order = model.group.order
        u = rng.integers(0, order, size=(samples, n))
        counts = np.stack([(u == g).sum(axis=1) for g in range(order)], axis=1)
        stat = np.array([group_overlap_stat(model.group, model.irreps, c)
                         for c in counts])
        weights = tuple((r.name, 1 if r.type_tag == "real" else 2, r.model_dim)
                        for r in model.irreps)
    return OverlapSample(lam2_over_n * stat, weights, model.describe(), n)


def ldlr_montecarlo_overlap(model: Model, n: int, D: int, samples: int,
                            seed=None, bootstrap: int = 200) -> LdlrReport:
    """Monte-Carlo estimate of the degree-<=D second moment with its error.

    Averages sum_d omega^d / d! over the overlaps of :func:`sample_overlaps`.
    ``stderr`` holds a bootstrap standard error per degree plus the
    cumulative one in the last slot.
    """
    if samples < 100:
        raise InvalidParameterError("need at least 100 samples")
    if D < 0:
        raise InvalidParameterError("D must be >= 0")
    omega = sample_overlaps(model, n, samples, seed).values
    powers = np.empty((D + 1, samples))
    powers[0] = 1.0
    with np.errstate(over="ignore"):    # overflow is reported just below
        for d in range(1, D + 1):
            powers[d] = powers[d - 1] * omega / d
    if not np.isfinite(powers).all():
        raise NumericalOverflowError("overlap powers overflowed; lower D or snr")
    terms = powers.mean(axis=1)
    totals = powers.sum(axis=0)

    boot_rng = make_rng(seed, 72)
    idx = boot_rng.integers(0, samples, size=(bootstrap, samples))
    boot_terms = powers[:, idx].mean(axis=2)        # (D+1, bootstrap)
    boot_cum = totals[idx].mean(axis=1)             # (bootstrap,)
    stderr = tuple(boot_terms.std(axis=1, ddof=1)) + (float(boot_cum.std(ddof=1)),)

    params = {"model": model.describe(), "n": n, "lam": model.snr, "D": D,
              "samples": samples}
    return LdlrReport(tuple(float(t) for t in terms), "monte-carlo", params,
                      stderr=stderr)


# ---------------------------------------------------------------------------
# Polylogarithm bound
# ---------------------------------------------------------------------------

def polylog_neg(order: int, z: float, rel_tol: float = 1e-16,
                max_terms: int = 10 ** 7) -> float:
    """sum_{k>=1} k^order z^k for 0 <= z < 1 and order >= 0 (so -order series).

    Terms grow before they decay; summation stops once a term falls below
    ``rel_tol`` times the running sum on the decaying side.
    """
    if not 0 <= z < 1:
        raise DivergentSeriesError("series converges only for 0 <= z < 1")
    if z == 0:
        return 0.0
    total = 0.0
    prev = 0.0
    for k in range(1, max_terms):
        term = float(k) ** order * z ** k
        total += term
        if term < prev and term < rel_tol * total:
            return total
        prev = term
    raise NumericalOverflowError("series did not settle within the term budget")


def bound_polylog(L: int, lam: float, D: int, limit: bool = True):
    """Partial sum sum_{d=0}^{D} lam^(2d) d^(2L) and, optionally, its limit.

    The limit is the negative-order polylogarithm of lam^2 at order 2L and
    exists only for lam < 1; requesting it at lam >= 1 raises.
    """
    if L < 1 or D < 0 or lam < 0:
        raise InvalidParameterError("need L >= 1, D >= 0, lam >= 0")
    partial = math.fsum(lam ** (2 * d) * float(d) ** (2 * L) for d in range(D + 1))
    if not limit:
        return partial, None
    if lam >= 1:
        raise DivergentSeriesError("series limit requires lam < 1")
    return partial, polylog_neg(2 * L, lam ** 2)
