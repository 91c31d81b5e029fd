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

  * :func:`ldlr_exact_multinomial` sums over the law of Q = sum n_g^2, the
    only way both statistics depend on the counts (rationals or log floats);
  * :func:`ldlr_bruteforce_signals` enumerates all L^n signal assignments
    (the independent oracle for the multinomial route);
  * :func:`ldlr_from_md` counts zero-sum index tuples, which fixes the
    moments of the ``all_frequencies`` statistic without touching the
    multinomial law (and is the exact route for the circle prior);
  * :func:`ldlr_montecarlo_overlap` averages the overlap series over
    sampled signals and reports the standard error of each mean.
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

# Largest C(n+L-1, L-1) (count vectors) the multinomial route accepts
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
    num = Fraction(n) if exact else float(n)
    moments = tuple(t * (num ** d * math.factorial(d)) for d, t in enumerate(rep.terms))
    return MomentTable(moments, L, n, statistic)


# ---------------------------------------------------------------------------
# Exact multinomial route
# ---------------------------------------------------------------------------

def _check_route_args(L: int, n: int, lam, D: int, min_L: int = 2) -> None:
    if L < min_L or n < 1 or D < 0 or not 0 <= float(lam) < math.inf:
        raise InvalidParameterError(f"need L >= {min_L}, n >= 1, D >= 0, finite lam >= 0")


def _occupancy_law(L: int, n: int, exact: bool):
    """Distinct values of Q = sum_g n_g^2 over the L^n assignments, with weights:
    integer counts of assignments if ``exact``, else log-probabilities.

    A dynamic programme over cells with state (mass used m, partial Q); each
    cell expands every state over its count c = 0..n-m (the last takes n-m)
    and equal states merge.  No array exceeds C(n+L-1, L-1) entries.
    """
    if exact:
        weight, merge = np.array([1], dtype=object), np.add
    else:
        log_fact = gammaln(np.arange(n + 1) + 1.0)
        weight, merge = np.full(1, -n * np.log(L)), np.logaddexp
    mass = q = np.zeros(1, dtype=np.int64)
    for cell in range(L):
        rest = n - mass
        if cell == L - 1:
            mass, q = mass + rest, q + rest * rest
        else:
            src = np.repeat(np.arange(len(mass)), rest + 1)
            c = np.arange(len(src)) - np.repeat(np.cumsum(rest + 1) - rest - 1, rest + 1)
            r = rest[src]
            if exact:   # one row C(k, 0..k) per distinct k, by the multiplicative recurrence
                rows = {k: list(itertools.accumulate(
                    range(k), lambda b, j, k=k: b * (k - j) // (j + 1), initial=1))
                    for k in set(rest.tolist())}
                weight = weight[src] * np.fromiter(itertools.chain.from_iterable(
                    rows[k] for k in rest.tolist()), dtype=object, count=len(src))
            else:
                weight = weight[src] + (log_fact[r] - log_fact[c] - log_fact[r - c])
            mass, q = mass[src] + c, q[src] + c * c
        order = np.lexsort((q, mass))
        mass, q = mass[order], q[order]
        starts = np.flatnonzero((np.diff(mass, prepend=-1) != 0) | (np.diff(q, prepend=-1) != 0))
        weight = merge.reduceat(weight[order], starts)
        mass, q = mass[starts], q[starts]
    return q, weight


def ldlr_exact_multinomial(L: int, n: int, lam, D: int, exact: bool = False,
                           statistic: str = "pearson",
                           budget: int = DEFAULT_BUDGET) -> LdlrReport:
    """Terms t_d = lam^(2d) / (n^d d!) * E[s^d] over the law of Q = sum n_g^2.

    ``exact=True`` uses big rationals; the float path reduces log(p * s^d)
    with log-sum-exp, so large n and d stay finite.  ``budget`` caps the
    count vectors C(n+L-1, L-1), which bound the law's largest array.
    """
    _check_statistic(statistic)
    _check_route_args(L, n, lam, D)
    total = math.comb(n + L - 1, L - 1)
    if total > budget:
        raise ResourceLimitError(f"{total} count vectors exceed the budget of {budget}")
    q, weight = _occupancy_law(L, n, exact)
    params = {"L": L, "n": n, "lam": float(lam), "D": D, "statistic": statistic,
              "exact": exact}

    # Q <= n^2, so 2s stays exact in int64
    twice_s = L * q - n * n if statistic == "pearson" else 2 * L * q
    if exact:
        twice_s = twice_s.astype(object)
        terms = tuple(Fraction(lam) ** (2 * d) * Fraction(
            int((weight * twice_s ** d).sum()), 2 ** d * L ** n * n ** d * math.factorial(d))
            for d in range(D + 1))
        return LdlrReport(terms, "exact-multinomial", params)

    pos = twice_s > 0      # never empty: all mass in one cell gives s > 0
    logs, logw = np.log(0.5 * twice_s[pos]), weight[pos]
    lam = float(lam)
    terms = [1.0]
    for d in range(1, D + 1):
        log_td = (2 * d * np.log(lam) if lam > 0 else -np.inf) \
            + logsumexp(logw + d * logs) - d * np.log(n) - gammaln(d + 1)
        td = float(np.exp(log_td))
        if not np.isfinite(td):
            raise NumericalOverflowError(f"term {d} overflowed; rerun with exact=True")
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
    _check_route_args(L, n, lam, D)
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
        td = Fraction(lam) ** (2 * d) * e_sd / (Fraction(n) ** d * math.factorial(d))
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
    _check_route_args(L, n, lam, D, min_L=1)
    counts = [md_count(prior, L, n, d, budget) for d in range(D + 1)]
    params = {"L": L, "n": n, "lam": float(lam), "D": D, "prior": prior}
    terms = []
    for d, c in enumerate(counts):
        td = Fraction(lam) ** (2 * d) * c / (Fraction(n) ** d * math.factorial(d))
        terms.append(td if exact else float(td))
    return LdlrReport(tuple(terms), "md-count", params)


# ---------------------------------------------------------------------------
# Monte-Carlo overlap route
# ---------------------------------------------------------------------------

def group_overlap_stat(group: FiniteGroup, irreps: IrrepList, counts):
    """Overlap statistic via irrep matrices: sum_rho (beta_rho d_rho / 2) *
    ||sum_g n_g rho(g)||_F^2 over a nonredundant list.

    ``beta`` is 1 for real type and 2 otherwise; ``d_rho`` is the model
    dimension.  For every finite group this equals the ``pearson`` count
    statistic, which the tests exercise as a consistency check between the
    representation-based and count-based evaluations.  ``counts`` may be a
    (..., order) batch; a single count vector gives a float.
    """
    if irreps.mode != "nonredundant":
        raise InvalidParameterError("overlap expects a nonredundant irrep list")
    counts = np.asarray(counts, dtype=float)
    total = 0.0
    for irrep in irreps:
        beta = 1.0 if irrep.type_tag == "real" else 2.0
        fhat = np.tensordot(counts, irrep.matrices, axes=(-1, 0))
        total = total + 0.5 * beta * irrep.model_dim * (np.abs(fhat) ** 2).sum(axis=(-2, -1))
    return float(total) if counts.ndim == 1 else total


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
        stat = 0.5 * (model.L * (counts.astype(float) ** 2).sum(axis=1) - float(n) ** 2)
        weights = tuple((f"freq-{ell}", 1 if (2 * ell) % model.L == 0 else 2, 1)
                        for ell in range(1, model.L // 2 + 1))
    else:
        order = model.group.order
        u = rng.integers(0, order, size=(samples, n))
        counts = np.stack([(u == g).sum(axis=1) for g in range(order)], axis=1)
        stat = group_overlap_stat(model.group, model.irreps, counts)
        weights = tuple((r.name, 1 if r.type_tag == "real" else 2, r.model_dim)
                        for r in model.irreps)
    return OverlapSample(lam2_over_n * stat, weights, model.describe(), n)


def ldlr_montecarlo_overlap(model: Model, n: int, D: int, samples: int,
                            seed=None) -> LdlrReport:
    """Monte-Carlo estimate of the degree-<=D second moment with its error.

    Averages sum_d omega^d / d! over the overlaps of :func:`sample_overlaps`.
    ``stderr`` holds the standard error of the mean, std(ddof=1) / sqrt(samples),
    of each degree's term plus that of the cumulative sum in the last slot.
    Memory is O(samples * (n + D)).
    """
    if samples < 100 or D < 0:
        raise InvalidParameterError("need at least 100 samples and D >= 0")
    omega = sample_overlaps(model, n, samples, seed).values
    # omega >= 0: each product below is at most max(omega)^d / (d-1)!, and the
    # variance sums `samples` squares of sums of D+1 of them: check in log space
    log_top = math.log(omega.max()) if omega.max() > 0 else -math.inf
    log_power = max([0.0] + [d * log_top - math.lgamma(d) for d in range(1, D + 1)])
    if 2 * (log_power + math.log(D + 1)) + math.log(samples) >= math.log(np.finfo(float).max):
        raise NumericalOverflowError("overlap powers overflow; lower D or snr")
    powers = np.empty((D + 2, samples))     # degrees 0..D, then their sum
    powers[0] = 1.0
    for d in range(1, D + 1):
        powers[d] = powers[d - 1] * omega / d
    powers[-1] = powers[:-1].sum(axis=0)
    stderr = tuple(float(e) for e in powers.std(axis=1, ddof=1) / math.sqrt(samples))

    params = {"model": model.describe(), "n": n, "lam": model.snr, "D": D,
              "samples": samples}
    return LdlrReport(tuple(float(t) for t in powers[:-1].mean(axis=1)), "monte-carlo",
                      params, stderr=stderr)


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
