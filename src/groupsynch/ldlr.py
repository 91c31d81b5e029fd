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
    only way both statistics depend on the counts (rationals or log floats).
    Its float path imports ``scipy.special`` (for ``gammaln``) on its first
    call, so ``import groupsynch`` does not.
    The law comes from a dynamic programme over cells that sorts each cell's
    states on one int64 key.  The last law built is held, with read-only
    arrays, so back-to-back calls at one (L, n) that vary only lam, D or the
    statistic build it once.  The float path reduces a block of degrees at
    once with one log-sum-exp along Q.  That log-sum-exp is local
    (``_logsumexp_rows``), and the tests check it ``==`` to SciPy's.  Every
    term is bit for bit what a lexicographic (mass, Q) sort and one SciPy
    log-sum-exp per degree give;
  * :func:`ldlr_bruteforce_signals` visits all L^n signal assignments, in
    NumPy chunks of their base-L digits, and tallies 2s on each (the
    independent oracle for the multinomial route: it shares no code with the
    occupancy law);
  * :func:`ldlr_from_md` counts zero-sum index tuples, which fixes the
    moments of the ``all_frequencies`` statistic without touching the
    multinomial law (and is the exact route for the circle prior).  One
    walk counts the walks into each S_n orbit of partial sums (their sorted
    nonzero entries), so n enters only as a factor; its one budget is the
    walk's transitions;
  * :func:`ldlr_montecarlo_overlap` averages the overlap series over
    sampled signals, drawn in fixed-size chunks for finite priors, and
    reports the standard error of each mean.

``_ROUTES`` holds each route's contract: the priors it covers with the statistics it
computes on each, its rational form, its L rule and its call; each route checks its
arguments against its own row.  Every report names the statistic it computed in
``params["statistic"]``.  The three rational routes turn moments into terms through ``_terms``.

:func:`moment_table` reads the moments E[s^d] back off the exact route's
terms, and :func:`polylog_neg` evaluates, in closed form, the negative-order
polylogarithm that bounds the cumulative below the spectral threshold.
"""
from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._rules import COUNT, NONNEGATIVE, ORDER, REAL, SIZE, integer
from .eigen import _single_thread_blas
from .errors import (DivergentSeriesError, InvalidParameterError,
                     NumericalOverflowError, ResourceLimitError)
from .groups import FiniteGroup, IrrepList
from .models import Model
from .rng import make_rng

__all__ = [
    "LdlrReport",
    "first_moment_via_binomial",
    "moment_table",
    "ldlr_exact_multinomial",
    "ldlr_bruteforce_signals",
    "md_count",
    "ldlr_from_md",
    "ldlr_montecarlo_overlap",
    "sample_overlaps",
    "group_overlap_stat",
    "polylog_neg",
]

# Largest C(n+L-1, L-1) (count vectors) the multinomial route accepts
DEFAULT_BUDGET = 10 ** 7

# Entries of a 2-D block held at once (512 KB of float64 or int64, so a
# block and its temporaries stay in cache): degrees by values of Q in the
# float multinomial route, samples by signal entries in the Monte-Carlo draws
_CHUNK_ENTRIES = 1 << 16

# Degrees D the exact, brute-force and Monte-Carlo routes take, checked before
# their first degree and any allocation: past the largest D of the suites, demos
# and benchmark (60) and of the tests below the rule (110), and the D ~ n^(1/3)
# regime up to n = 1e9.  md's walk budget bounds its D instead.
_DEGREES = integer(0, 1000)

# Each LDLR route: method -> ({prior: its statistics there, its own first}, has a rational
# form, the rule its entry checks L against (mc's is its model's), its call).  Every call
# takes the same keywords and reaches its route through the module attribute when it runs,
# so a rebound route is the one that runs; a budget missing from ``budgets`` is the default.
_ROUTES = {
    "exact": ({"cyclic": ("pearson", "all_frequencies")}, True, ORDER,
              lambda L, n, lam, D, exact, statistic, budgets, **_: ldlr_exact_multinomial(
                  L, n, lam, D, exact, statistic, budgets.get("enumeration", DEFAULT_BUDGET))),
    "brute": ({"cyclic": ("pearson", "all_frequencies")}, True, ORDER,
              lambda L, n, lam, D, exact, statistic, budgets, **_: ldlr_bruteforce_signals(
                  L, n, lam, D, exact, statistic, budgets.get("enumeration", DEFAULT_BUDGET))),
    "md": ({"circle": ("all_frequencies",), "cyclic": ("all_frequencies",)}, True, SIZE,
           lambda prior, L, n, lam, D, exact, budgets, **_: ldlr_from_md(
               prior, L, n, lam, D, exact, budgets.get("md", MD_BUDGET))),
    "mc": ({"circle": ("all_frequencies",), "cyclic": ("pearson",)}, False, None,
           lambda prior, L, n, lam, D, samples, seed, **_: ldlr_montecarlo_overlap(
               Model.from_name(prior, L, lam), n, D, samples, seed)),
}


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


# ---------------------------------------------------------------------------
# Count statistics
# ---------------------------------------------------------------------------

def _terms(moments, lam, n: int, exact: bool) -> tuple:
    """Terms t_d = lam^(2d) E[s^d] / (n^d d!) from the rational moments E[s^d],
    each rounded once to a float unless ``exact``; a float past the float range
    raises :class:`NumericalOverflowError`."""
    lam2 = Fraction(lam) ** 2
    terms = tuple(lam2 ** d * m / (n ** d * math.factorial(d)) for d, m in enumerate(moments))
    try:
        return terms if exact else tuple(float(t) for t in terms)
    except OverflowError:
        raise NumericalOverflowError(f"a term of degree <= {len(terms) - 1} exceeds the "
                                     f"float range; rerun with exact=True") from None


# the big-integer sum grows as n^2; the oracle suite's largest n is 100
_BINOMIAL_N = integer(1, 10 ** 4)


def first_moment_via_binomial(L: int, n: int, exact: bool = True):
    """E[s] for the ``pearson`` statistic, by enumerating binomial marginals.

    Sums (L/2) * E (n_g - n/L)^2 over g using the exact Binomial(n, 1/L)
    law of each count; independent of the closed form n(L-1)/2.  The sum is
    a rational; ``exact=False`` returns it correctly rounded to a float.
    ``n`` must lie in [1, 1e4].
    """
    SIZE.check("L", L)
    _BINOMIAL_N.check("n", n)
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
    moment = Fraction(num, 2 * L ** n)
    return moment if exact else float(moment)


def moment_table(L: int, n: int, D: int, exact: bool = False,
                 statistic: str = "pearson") -> tuple:
    """Moments E[s^d], d = 0..D, of the count statistic under the multinomial law.

    Float moments beyond the float range raise :class:`NumericalOverflowError`.
    """
    rep = ldlr_exact_multinomial(L, n, 1.0, D, exact=exact, statistic=statistic)
    num = Fraction(n) if exact else float(n)
    try:
        moments = tuple(t * (num ** d * math.factorial(d)) for d, t in enumerate(rep.terms))
        if exact or math.isfinite(max(moments)):
            return moments
    except OverflowError:       # float n^d or d! beyond the float range
        pass
    raise NumericalOverflowError(f"E[s^d] for d <= {D} exceeds the float range")


# ---------------------------------------------------------------------------
# Exact multinomial route
# ---------------------------------------------------------------------------

def _check_route_args(method: str, prior, statistic, L: int, n: int, lam, D: int,
                      budget: int, D_rule=_DEGREES) -> str:
    """The statistic to compute, once the prior (None: the row's only one), statistic (None:
    the route's own) and L meet the route's row of ``_ROUTES`` and the rest the shared rules."""
    stats, _, L_rule, _ = _ROUTES[method]
    covered = [s for p, ps in stats.items() if p == prior or prior is None and len(stats) == 1
               for s in ps]
    if not covered or statistic not in (None, *covered):
        raise InvalidParameterError(f"the {method} route computes {stats}, not statistic "
                                    f"{statistic!r} on prior {prior!r}")
    L_rule.check("L", L)
    SIZE.check("n", n)
    SIZE.check("budget", budget)
    NONNEGATIVE.check("lam", lam)
    D_rule.check("D", D)
    return covered[0] if statistic is None else statistic


def _logsumexp_rows(a: np.ndarray) -> np.ndarray:
    """log(sum(exp(a), axis=1)) of a finite 2-D float array, by the steps of
    ``scipy.special.logsumexp(a, axis=1)`` (SciPy 1.17), so bit for bit equal to
    it: the row max is taken out, the m entries equal to it are counted apart
    from the sum s of the others' exp(a - max), and the result is
    log1p(s / m) + log(m) + max."""
    top = a.max(axis=1, keepdims=True)
    at_top = a == top
    m = at_top.sum(axis=1, keepdims=True, dtype=float)
    shifted = a - top
    shifted[at_top] = -np.inf
    s = np.exp(shifted).sum(axis=1, keepdims=True)
    s = np.where(s == 0, s, s / m)
    return (np.log1p(s) + np.log(m) + top)[:, 0]


def _expand_over_mass(rest: np.ndarray):
    """Source row and value c of each row repeated over c = 0..rest[row], in order."""
    src = np.repeat(np.arange(len(rest)), rest + 1)
    return src, np.arange(len(src)) - np.repeat(np.cumsum(rest + 1) - rest - 1, rest + 1)


@functools.lru_cache(maxsize=1)
def _occupancy_law(L: int, n: int, exact: bool):
    """Distinct values of Q = sum_g n_g^2 over the L^n assignments, with weights:
    integer counts of assignments if ``exact``, else log-probabilities.

    The last law built is held, so back-to-back calls at one (L, n) that vary
    only lam, D or the statistic build it once; both arrays are read-only,
    since every caller shares them.  One held law is smaller than the peak of
    the call that built it.

    A dynamic programme over cells with state (mass used m, partial Q); each
    cell expands every state over its count c = 0..n-m (the last takes n-m)
    and equal states merge.  Cell 0's states (c, c^2) are distinct and in
    order; every later cell sorts its states stably on the one int64 key
    (m - min m) * (n^2 + 1) + Q, which orders them as (m, Q) does, so each
    merge sums the same weights in the same order as a lexicographic sort.
    No array exceeds C(n+L-1, L-1) entries.
    """
    if exact:
        weight, merge = np.array([1], dtype=object), np.add
    else:
        from scipy.special import gammaln
        log_fact = gammaln(np.arange(n + 1) + 1.0)
        weight, merge = np.zeros(1), np.logaddexp
    mass = q = np.zeros(1, dtype=np.int64)
    for cell in range(L):
        rest = n - mass
        if cell == L - 1:
            mass, q = mass + rest, q + rest * rest
        else:
            src, c = _expand_over_mass(rest)
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
            del src, c, r   # free them before the sort, where the law peaks
        if cell > 0:
            key = (mass - mass.min()) * (n * n + 1) + q
            order = np.argsort(key, kind="stable")
            starts = np.flatnonzero(np.diff(key[order], prepend=-1))
            weight = merge.reduceat(weight[order], starts)
            first = order[starts]
            mass, q = mass[first], q[first]
    # normalising by the weights' own log-sum-exp, rather than subtracting
    # n log L, cancels the rounding of log n! that every log weight shares
    if not exact:
        weight = weight - _logsumexp_rows(weight[None, :])
    q.setflags(write=False)
    weight.setflags(write=False)
    return q, weight


def ldlr_exact_multinomial(L: int, n: int, lam, D: int, exact: bool = False,
                           statistic: str = "pearson",
                           budget: int = DEFAULT_BUDGET) -> LdlrReport:
    """Terms t_d = lam^(2d) / (n^d d!) * E[s^d] over the law of Q = sum n_g^2.

    ``exact=True`` uses big rationals; the float path reduces log(p * s^d)
    with log-sum-exp, so large n and d stay finite.  It takes the degrees in
    blocks of at most ``_CHUNK_ENTRIES`` (degree, Q) entries, one log-sum-exp
    along Q per block; each row equals that degree's own one-dimensional
    log-sum-exp bit for bit.  The log-sum-exp, of the blocks and of the law's
    own normalisation, is the local ``_logsumexp_rows``, tested ``==`` to
    ``scipy.special.logsumexp``.  ``D`` meets ``_DEGREES`` (at most 1000)
    before anything is computed.  A term past the float range raises
    :class:`NumericalOverflowError` naming its degree, before any ``exp``.
    ``budget`` caps the count vectors C(n+L-1, L-1), which bound the law's
    largest array; an n whose sort key would pass int64 (L >= 3, n above
    about 2.1e6) raises :class:`ResourceLimitError` as well.
    """
    statistic = _check_route_args("exact", None, statistic, L, n, lam, D, budget)
    total = math.comb(n + L - 1, L - 1)
    if total > budget:
        raise ResourceLimitError(f"{total} count vectors exceed the budget of {budget}")
    if L > 2 and n * (n * n + 1) + n * n > np.iinfo(np.int64).max:   # a middle cell's key
        raise ResourceLimitError(f"n = {n} puts the occupancy sort key past int64")
    q, weight = _occupancy_law(L, n, exact)
    params = {"L": L, "n": n, "lam": float(lam), "D": D, "statistic": statistic,
              "exact": exact}

    # Q <= n^2, so 2s stays exact in int64
    twice_s = L * q - n * n if statistic == "pearson" else 2 * L * q
    if exact:
        twice_s, power, moments = twice_s.astype(object), weight, []
        for d in range(D + 1):      # power = weight * (2s)^d, one product per degree
            moments.append(Fraction(int(power.sum()), 2 ** d * L ** n))
            power = power * twice_s
        return LdlrReport(_terms(moments, lam, n, True), "exact-multinomial", params)

    from scipy.special import gammaln
    pos = twice_s > 0      # never empty: all mass in one cell gives s > 0
    logs, logw = np.log(0.5 * twice_s[pos]), weight[pos]
    log_lam = np.log(float(lam)) if lam > 0 else -np.inf
    log_max = math.log(np.finfo(float).max)    # exp(x) is finite iff x <= log_max
    terms = [1.0]
    rows = max(1, _CHUNK_ENTRIES // len(logs))
    for start in range(1, D + 1, rows):
        # each row's log-sum-exp runs along a contiguous axis, so it equals the
        # one-dimensional reduction of that degree bit for bit
        d = np.arange(start, min(start + rows, D + 1))
        log_td = 2 * d * log_lam \
            + _logsumexp_rows(logw + d[:, None] * logs) - d * np.log(n) - gammaln(d + 1)
        bad = np.flatnonzero(~(log_td <= log_max))     # a NaN counts as overflow
        if len(bad):
            raise NumericalOverflowError(f"term {d[bad[0]]} overflowed; rerun with exact=True")
        terms.extend(np.exp(log_td).tolist())
    return LdlrReport(tuple(terms), "exact-multinomial", params)


# ---------------------------------------------------------------------------
# Brute-force signal enumeration (independent oracle)
# ---------------------------------------------------------------------------

def ldlr_bruteforce_signals(L: int, n: int, lam, D: int, exact: bool = True,
                            statistic: str = "pearson",
                            budget: int = DEFAULT_BUDGET) -> LdlrReport:
    """Average s^d over all L^n equally likely signal assignments.

    Visits every assignment, so it shares no code path with the multinomial
    law it is used to check.  The assignments are the integers 0..L^n - 1,
    taken in chunks of at most ``_CHUNK_ENTRIES`` (position, assignment)
    digits.  Each chunk reads the base-L digits of an ``arange``, counts
    sum_g n_g^2 as the ordered position pairs with equal digits, and tallies
    the distinct values of 2s, all in int64; the sums of (2s)^d are exact
    integers.  Memory stays within one chunk whatever L and n are.  An L^n
    or a 2s past int64 raises :class:`ResourceLimitError` before any array
    is built, whatever the ``budget``.
    """
    statistic = _check_route_args("brute", None, statistic, L, n, lam, D, budget)
    # the logarithm bounds L^n before the power is built, so a huge n never builds it
    if n * math.log2(L) > 64 or max(L ** n, 2 * L * n * n) > np.iinfo(np.int64).max:
        raise ResourceLimitError(f"{L}^{n} assignments pass int64")
    total = L ** n
    if total > budget:
        raise ResourceLimitError(f"{total} assignments exceed the budget of {budget}")
    tally = Counter()   # 2s -> assignments
    rows = max(1, _CHUNK_ENTRIES // n)
    for start in range(0, total, rows):
        code = np.arange(start, min(start + rows, total), dtype=np.int64)
        digits = np.empty((n, len(code)), dtype=np.int64)
        for j in range(n):
            code, digits[j] = np.divmod(code, L)
        q = np.full(len(code), n, dtype=np.int64)   # n + 2 #{i < j : a_i = a_j}
        for j in range(1, n):
            q += 2 * (digits[:j] == digits[j]).sum(axis=0)
        twice_s = L * q - n * n if statistic == "pearson" else 2 * L * q
        values, counts = np.unique(twice_s, return_counts=True)
        tally.update(dict(zip(values.tolist(), counts.tolist())))
    params = {"L": L, "n": n, "lam": float(lam), "D": D, "statistic": statistic,
              "exact": exact}
    moments = [Fraction(sum(c * v ** d for v, c in tally.items()), 2 ** d * total)
               for d in range(D + 1)]
    return LdlrReport(_terms(moments, lam, n, exact), "brute-force", params)


# ---------------------------------------------------------------------------
# Tuple-family counting
# ---------------------------------------------------------------------------

# Transitions of the md walk: the worst admitted call at n = 1e6 takes about 3 s
MD_BUDGET = 10 ** 6


def _md_counts(prior: str, L: int, n: int, D: int, budget: int) -> list:
    """:func:`md_count` at every degree 0..D, from one walk over S_n orbits."""
    _check_route_args("md", prior, None, L, n, 0, D, budget, COUNT)
    # entries mod L on the cyclic prior; on the circle |entry| <= L D < modulus / 2
    modulus = L if prior == "cyclic" else 2 * L * D + 1
    orbit = lambda v: tuple(sorted(filter(None, [x % modulus for x in v])))   # nonzeros
    layer, counts, work = {(): 1}, [1], 2 * L * D     # D empty orbits, 2L transitions each
    for d in range(1, D + 1):
        work += L * sum(len(s) ** 2 + len(s) + 2 for s in layer if s)
        if work > budget:
            raise ResourceLimitError(f"md to degree {D} takes at least {work} walk "
                                     f"transitions, past the budget of {budget}")
        walked = Counter()
        for s, w in layer.items():
            k, z = len(s), n - len(s)
            walked[s] += w * n * L      # a = b
            for ell in range(1, L + 1):
                walked[orbit(s + (ell, -ell))] += w * z * (z - 1)     # two zero slots
                for a, b in itertools.permutations(range(k + 1), 2):
                    v = [*s, 0]     # slot k stands for each of the z zero slots
                    v[a], v[b] = v[a] + ell, v[b] - ell
                    walked[orbit(v)] += w if max(a, b) < k else w * z
        layer = {s: w for s, w in walked.items() if w and len(s) <= 2 * (D - d)}
        counts.append(layer.get((), 0))
    return counts


def md_count(prior: str, L: int, n: int, d: int, budget: int = MD_BUDGET) -> int:
    """Number of tuples (l, a, b) in [L]^d x [n]^d x [n]^d whose signed
    index sum sum_j l_j (e_{a_j} - e_{b_j}) vanishes.

    ``prior="circle"`` tests exact zero over the integers; ``prior="cyclic"``
    tests zero mod L.  Every exact zero is a zero mod L, so the circle count
    never exceeds the cyclic count.

    One walk counts the walks into each S_n orbit of partial sums (sorted
    nonzero entries, mod L on the cyclic prior, at most 2(d - j) after j
    steps); n enters only as a factor.  ``budget`` caps its transitions,
    L (k^2 + k + 2) from an orbit with k nonzeros, before each step.
    """
    COUNT.check("d", d)
    return _md_counts(prior, L, n, d, budget)[d]


def ldlr_from_md(prior: str, L: int, n: int, lam, D: int, exact: bool = False,
                 budget: int = MD_BUDGET) -> LdlrReport:
    """Terms t_d = lam^(2d) / (n^d d!) * |tuple family of degree d|.

    For the circle prior this is the exact second moment of the degree-D
    likelihood-ratio projection with L frequency channels.  For the cyclic
    prior it equals the ``all_frequencies`` multinomial route, term by term.
    """
    NONNEGATIVE.check("lam", lam)     # _md_counts checks the rest
    params = {"L": L, "n": n, "lam": float(lam), "D": D, "prior": prior,
              "statistic": "all_frequencies"}
    return LdlrReport(_terms(_md_counts(prior, L, n, D, budget), lam, n, exact),
                      "md-count", params)


# ---------------------------------------------------------------------------
# Monte-Carlo overlap route
# ---------------------------------------------------------------------------

@_single_thread_blas()
def group_overlap_stat(group: FiniteGroup, irreps: IrrepList, counts):
    """Overlap statistic via irrep matrices: sum_rho (beta_rho d_rho / 2) *
    ||sum_g n_g rho(g)||_F^2 over a nonredundant list.

    ``beta`` is 1 for real type and 2 otherwise; ``d_rho`` is the model
    dimension.  For every finite group this equals the ``pearson`` count
    statistic, which the tests exercise as a consistency check between the
    representation-based and count-based evaluations.  ``counts`` may be a
    (..., order) batch; a single count vector gives a float.  ``group`` and ``irreps``
    meet the group-model rule, as :class:`Model` checks it.
    """
    Model("group", group=group, irreps=irreps)
    counts = np.asarray(counts, dtype=float)
    total = 0.0
    for irrep in irreps:
        beta = 1.0 if irrep.type_tag == "real" else 2.0
        fhat = np.tensordot(counts, irrep.matrices, axes=(-1, 0))
        total = total + 0.5 * beta * irrep.model_dim * (np.abs(fhat) ** 2).sum(axis=(-2, -1))
    return float(total) if counts.ndim == 1 else total


def _draw_counts(rng, order: int, samples: int, n: int) -> np.ndarray:
    """Occupancy counts, shape (samples, order), of i.i.d. uniform signals.

    Draws the (samples, n) element indices in row chunks of about
    ``_CHUNK_ENTRIES`` entries and counts each chunk with one bincount,
    after offsetting row r by r * order.  The generator hands out its stream
    in order, so the chunks read the same indices as one full draw.
    """
    rows = max(1, _CHUNK_ENTRIES // n)
    counts = np.empty((samples, order), dtype=np.int64)
    for start in range(0, samples, rows):
        u = rng.integers(0, order, size=(min(rows, samples - start), n))
        u += order * np.arange(len(u))[:, None]
        counts[start:start + len(u)] = np.bincount(
            u.ravel(), minlength=len(u) * order).reshape(-1, order)
    return counts


def sample_overlaps(model: Model, n: int, samples: int, seed=None) -> np.ndarray:
    """Per-sample overlaps omega of i.i.d. signal draws, one per sample.

    Uses the symmetry reduction that replaces the second, independent signal
    draw by a fixed reference point, valid for every prior considered here.
    """
    SIZE.check("n", n)
    SIZE.check("samples", samples)
    rng = make_rng(seed, 71)
    lam2_over_n = model.snr ** 2 / n
    if model.kind == "circle":
        # one complex exp shared by all frequencies: x^ell = x^(ell-1) x
        unit = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=(samples, n)))
        power = unit.copy()
        stat = np.abs(power.sum(axis=1)) ** 2
        for _ in range(1, model.L):
            power *= unit
            stat += np.abs(power.sum(axis=1)) ** 2
    elif model.kind == "cyclic":
        counts = _draw_counts(rng, model.L, samples, n)
        stat = 0.5 * (model.L * (counts.astype(float) ** 2).sum(axis=1) - float(n) ** 2)
    else:
        counts = _draw_counts(rng, model.group.order, samples, n)
        stat = group_overlap_stat(model.group, model.irreps, counts)
    return lam2_over_n * stat


# fewer samples leave the standard errors too rough to gate on
_MC_SAMPLES = integer(100)


def ldlr_montecarlo_overlap(model: Model, n: int, D: int, samples: int,
                            seed=None) -> LdlrReport:
    """Monte-Carlo estimate of the degree-<=D second moment with its error.

    Averages sum_d omega^d / d! over the overlaps of :func:`sample_overlaps`.
    ``stderr`` holds the standard error of the mean, std(ddof=1) / sqrt(samples),
    of each degree's term plus that of the cumulative sum in the last slot.
    Memory is O(samples * (n + D)) for the circle prior; finite priors draw
    their signals in chunks and hold O(samples * (order + D)) plus one chunk.
    """
    _DEGREES.check("D", D)
    _MC_SAMPLES.check("samples", samples)
    omega = sample_overlaps(model, n, samples, seed)
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

    params = {"model": model.describe(), "n": n, "lam": model.snr, "D": D, "samples": samples,
              "statistic": "all_frequencies" if model.kind == "circle" else "pearson"}
    return LdlrReport(tuple(float(t) for t in powers[:-1].mean(axis=1)), "monte-carlo",
                      params, stderr=stderr)


# ---------------------------------------------------------------------------
# Polylogarithm bound
# ---------------------------------------------------------------------------

def polylog_neg(order: int, z: float) -> float:
    """sum_{k>=1} k^order z^k for 0 <= z < 1 and integer order >= 0 (so -order series).

    The closed form z A_s(z) / (1 - z)^(s+1), with s = order and A_s the
    Eulerian polynomial, whose integer coefficients follow from
    A(m, k) = (k + 1) A(m-1, k) + (m - k) A(m-1, k-1).  It is evaluated in
    rationals at the float z and rounded once.  A sum past the float range
    raises :class:`NumericalOverflowError`.
    """
    COUNT.check("order", order)
    if not 0 <= REAL.check("z", z) < 1:
        raise DivergentSeriesError("series converges only for 0 <= z < 1")
    if z == 0:
        return 0.0
    # the largest term, near k = order / -log z, bounds the sum from below;
    # checking it first spares building order^2 / 2 coefficients in vain
    top = max(1, round(order / -math.log(z)))
    if order * math.log(top) + top * math.log(z) <= math.log(np.finfo(float).max):
        coef = [1]      # A(m, 0..m-1) for m = 1..order; A_0 = 1 as well
        for m in range(2, order + 1):
            pad = [0] + coef + [0]      # pad[k + 1] = A(m-1, k), zero outside 0..m-2
            coef = [(k + 1) * pad[k + 1] + (m - k) * pad[k] for k in range(m)]
        x = Fraction(float(z))
        try:
            return float(x * sum(c * x ** k for k, c in enumerate(coef)) / (1 - x) ** (order + 1))
        except OverflowError:
            pass
    raise NumericalOverflowError(f"the order -{order} polylog at {z} exceeds the float range")
