import itertools
import math
import tracemalloc
from collections import Counter
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln, logsumexp

from groupsynch import ldlr
from groupsynch.errors import (DivergentSeriesError, InvalidParameterError,
                               NumericalOverflowError, ResourceLimitError)
from groupsynch.groups import build_catalog
from groupsynch.ldlr import (LdlrReport, first_moment_via_binomial,
                             group_overlap_stat, ldlr_bruteforce_signals,
                             ldlr_exact_multinomial, ldlr_from_md,
                             ldlr_montecarlo_overlap, md_count, moment_table,
                             polylog_neg, sample_overlaps)
from groupsynch.models import Model
from groupsynch.rng import make_rng


def _twice_stat(counts, L, statistic):
    """2s of a count vector, an integer: L * sum n_g^2 - n^2 for ``pearson``,
    2 L * sum n_g^2 for ``all_frequencies``."""
    q = L * sum(c * c for c in counts)
    n = sum(counts)
    return q - n * n if statistic == "pearson" else 2 * q


def s_stat(counts):
    """The ``pearson`` statistic s of a count vector, as an exact Fraction."""
    return Fraction(_twice_stat(counts, len(counts), "pearson"), 2)


def _bruteforce_reference(L, n, statistic):
    """The slow reference for ldlr_bruteforce_signals: the moments E[s^d],
    d = 0..4, by one Python pass per assignment that tallies its counts and
    accumulates integer powers of 2s."""
    sums = [0] * 5  # sums of (2s)^d as exact integers
    for assign in itertools.product(range(L), repeat=n):
        counts = [0] * L
        for a in assign:
            counts[a] += 1
        ts, acc = _twice_stat(counts, L, statistic), 1
        for d in range(5):
            sums[d] += acc
            acc *= ts
    return [Fraction(total_d, 2 ** d * L ** n) for d, total_d in enumerate(sums)]


# ---------------------------------------------------------------------------
# Count statistics
# ---------------------------------------------------------------------------

def test_s_stat_examples():
    assert s_stat([4, 4, 4]) == 0            # balanced counts
    assert s_stat([5, 0]) == Fraction(25, 2)  # L=2 extreme split: n^2/2
    assert s_stat([3, 0, 0]) == 9


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=30), min_size=2, max_size=6))
def test_s_stat_two_forms_agree(counts):
    # centered quadratic form against the pairwise-difference expansion
    L = len(counts)
    n = sum(counts)
    centered = Fraction(L, 2) * sum((Fraction(c) - Fraction(n, L)) ** 2
                                    for c in counts)
    pairwise = (Fraction(L - 1, 2) * sum(c * c for c in counts)
                - Fraction(1, 2) * sum(counts[i] * counts[j]
                                       for i in range(L) for j in range(L)
                                       if i != j))
    assert s_stat(counts) == centered == pairwise


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=2, max_value=5),
       st.lists(st.integers(min_value=0, max_value=12), min_size=2, max_size=5),
       st.integers(min_value=1, max_value=4))
def test_s_stat_power_decomposition(L, counts, d):
    # s^d equals the multinomial expansion over per-coordinate elimination:
    # s = (L/2) * sum_ell c_ell ((n - n_1 - .. - n_{ell-1})/(L-ell+1) - n_ell)^2
    counts = (counts + [0] * 5)[:L]
    n = sum(counts)
    s = s_stat(counts)
    total = Fraction(0)
    for parts in itertools.product(range(d + 1), repeat=L - 1):
        if sum(parts) != d:
            continue
        coeff = Fraction(math.factorial(d))
        for p in parts:
            coeff /= math.factorial(p)
        term = coeff
        for ell in range(1, L):
            rem = n - sum(counts[1:ell])
            base = Fraction(rem, L - ell + 1) - counts[ell]
            term *= (Fraction(L - ell + 1, L - ell) ** parts[ell - 1]
                     * base ** (2 * parts[ell - 1]))
        total += term
    assert Fraction(L, 2) ** d * total == s ** d


@pytest.mark.parametrize("exact", [True, False])
@pytest.mark.parametrize("L,n", [(0, 5), (3, -1), (3, 0)])
def test_first_moment_rejects_bad_sizes(exact, L, n):
    with pytest.raises(InvalidParameterError):
        first_moment_via_binomial(L, n, exact=exact)


def test_first_moment_closed_form():
    for L in range(2, 9):
        for n in (10, 100, 1000):
            assert first_moment_via_binomial(L, n) == Fraction(n * (L - 1), 2)
            # the float is the rational sum rounded once, so exact here
            assert first_moment_via_binomial(L, n, exact=False) == n * (L - 1) / 2


# ---------------------------------------------------------------------------
# Exact multinomial route and its brute-force oracle
# ---------------------------------------------------------------------------

def test_zero_snr_gives_unit_norm():
    for rep in (ldlr_exact_multinomial(3, 6, 0.0, 4),
                ldlr_bruteforce_signals(3, 6, 0.0, 4),
                ldlr_from_md("cyclic", 3, 3, 0.0, 2)):
        assert float(rep.cumulative) == 1.0
        assert all(float(t) == 0.0 for t in rep.terms[1:])


def test_degree_one_closed_form():
    # t_1 = lam^2 * E[s] / n = lam^2 (L-1)/2
    for L in (2, 3, 5):
        rep = ldlr_exact_multinomial(L, 9, 0.7, 1)
        assert float(rep.cumulative) == pytest.approx(1 + 0.49 * (L - 1) / 2,
                                                      rel=1e-12)


def test_bruteforce_n1_direct():
    # single coordinate: counts are a basis vector, s = (L - 1)/2
    rep = ldlr_bruteforce_signals(4, 1, 1.0, 3)
    s = Fraction(3, 2)
    for d in (1, 2, 3):
        expected = s ** d / (Fraction(1) ** d * math.factorial(d))
        assert rep.terms[d] == expected


def test_bruteforce_l2_n2_first_moment():
    rep = ldlr_bruteforce_signals(2, 2, 1.0, 1)
    # E s = n (L-1)/2 = 1, so t_1 = lam^2 E s / n = 1/2
    assert rep.terms[1] * 2 == 1


def test_exact_vs_bruteforce_rational():
    for L, n in ((2, 6), (3, 4), (4, 3), (5, 6), (6, 5), (7, 4)):
        for statistic in ("pearson", "all_frequencies"):
            a = ldlr_exact_multinomial(L, n, 0.9, 3, exact=True, statistic=statistic)
            b = ldlr_bruteforce_signals(L, n, 0.9, 3, exact=True, statistic=statistic)
            assert a.terms == b.terms, (L, n, statistic)


def _check_against_the_reference(L, n):
    for statistic in ("pearson", "all_frequencies"):
        moments = _bruteforce_reference(L, n, statistic)
        for exact in (True, False):
            got = ldlr_bruteforce_signals(L, n, 0.9, 4, exact=exact, statistic=statistic)
            assert got.terms == ldlr._terms(moments, 0.9, n, exact), (L, n, statistic, exact)


@pytest.mark.parametrize("L", range(2, 7))
def test_bruteforce_matches_the_per_assignment_loop(L):
    for n in range(1, 8):
        _check_against_the_reference(L, n)


def test_bruteforce_chunks_match_the_per_assignment_loop(monkeypatch):
    # 3^7 = 2187 assignments at 7 digits each: chunks of 100 assignments, the last of 87
    monkeypatch.setattr(ldlr, "_CHUNK_ENTRIES", 7 * 100 + 6)
    chunks = []

    class Tally(Counter):
        def update(self, counts=None):      # Counter() calls it with None
            if counts is not None:
                chunks.append(sum(counts.values()))
            super().update(counts)

    monkeypatch.setattr(ldlr, "Counter", Tally)
    _check_against_the_reference(3, 7)
    assert chunks == ([100] * 21 + [87]) * 4


@pytest.mark.parametrize("L, n", [(2, 64), (3, 40), (2 ** 62, 1), (10, 10 ** 9)])
def test_bruteforce_past_int64_is_refused_whatever_the_budget(monkeypatch, L, n):
    monkeypatch.setattr(ldlr, "Counter", lambda: pytest.fail("the enumeration started"))
    with pytest.raises(ResourceLimitError, match="int64"):
        ldlr_bruteforce_signals(L, n, 0.9, 2, budget=10 ** 30)


def test_exact_vs_bruteforce_float_example():
    a = ldlr_exact_multinomial(3, 4, 0.9, 3)
    b = ldlr_bruteforce_signals(3, 4, 0.9, 3, exact=False)
    assert max(abs(x - y) for x, y in zip(a.terms, b.terms)) < 1e-9
    # the log-space float path against the rational one, beyond brute force
    for L, n, D in ((7, 16, 2), (3, 100, 8)):
        f = ldlr_exact_multinomial(L, n, 0.9, D)
        r = ldlr_exact_multinomial(L, n, 0.9, D, exact=True)
        assert all(x == pytest.approx(float(y), rel=1e-12)
                   for x, y in zip(f.terms, r.terms)), (L, n, D)


def test_exact_rational_two_cells_against_binomial_sum():
    # L = 2: 2s = (n_0 - n_1)^2, so E[(2s)^d] = sum_k C(n, k) (2k - n)^(2d) / 2^n
    n, D = 1200, 3
    rep = ldlr_exact_multinomial(2, n, 1.0, D, exact=True)
    for d in range(D + 1):
        moment = Fraction(sum(math.comb(n, k) * (2 * k - n) ** (2 * d) for k in range(n + 1)),
                          2 ** (n + d))
        assert rep.terms[d] == moment / (Fraction(n) ** d * math.factorial(d)), d


@pytest.mark.parametrize("n", [5000, 12000])
def test_float_route_two_cells_large_n(n):
    # log n! rounds alike in every log weight; normalising by the weights' own
    # log-sum-exp cancels it, where subtracting n log L left up to 1.5e-11
    for statistic in ("pearson", "all_frequencies"):
        f = ldlr_exact_multinomial(2, n, 1.0, 6, statistic=statistic)
        r = ldlr_exact_multinomial(2, n, 1.0, 6, exact=True, statistic=statistic)
        assert all(x == pytest.approx(float(y), rel=3e-12)
                   for x, y in zip(f.terms, r.terms)), statistic


@pytest.mark.parametrize("lam", [float("nan"), float("inf"), -0.5])
def test_exact_routes_reject_bad_snr(lam):
    for route in (lambda: ldlr_exact_multinomial(3, 5, lam, 2),
                  lambda: ldlr_exact_multinomial(3, 5, lam, 2, exact=True),
                  lambda: ldlr_bruteforce_signals(3, 5, lam, 2),
                  lambda: ldlr_from_md("cyclic", 3, 2, lam, 2),
                  lambda: ldlr_from_md("circle", 1, 2, lam, 2)):
        with pytest.raises(InvalidParameterError):
            route()


def test_enumeration_budget_enforced():
    with pytest.raises(ResourceLimitError):
        ldlr_exact_multinomial(3, 10 ** 5, 0.5, 2, budget=10 ** 4)
    with pytest.raises(ResourceLimitError):
        ldlr_bruteforce_signals(3, 30, 0.5, 2)
    with pytest.raises(ResourceLimitError):
        md_count("cyclic", 4, 20, 6)


def test_report_invariants_and_monotonicity():
    rep = ldlr_exact_multinomial(3, 12, 0.8, 6)
    assert float(rep.terms[0]) == 1.0
    assert all(float(t) >= 0.0 for t in rep.terms)
    sums = list(itertools.accumulate(rep.terms))
    assert all(b >= a for a, b in zip(sums, sums[1:]))
    # monotone in snr
    lo = ldlr_exact_multinomial(3, 12, 0.5, 6)
    assert float(lo.cumulative) <= float(rep.cumulative)


# ---------------------------------------------------------------------------
# The one-key sort and the chunked reduction against a reference
# ---------------------------------------------------------------------------

def _reference_law(L, n, exact):
    """The cell DP merged after a lexicographic (mass, Q) sort of every cell,
    cell 0 included: the law as the route computed it before its one-key sort."""
    if exact:
        weight, merge = np.array([1], dtype=object), np.add
    else:
        log_fact = gammaln(np.arange(n + 1) + 1.0)
        weight, merge = np.zeros(1), np.logaddexp
    mass = q = np.zeros(1, dtype=np.int64)
    for cell in range(L):
        rest = n - mass
        if cell == L - 1:
            mass, q = mass + rest, q + rest * rest
        else:
            src, c = ldlr._expand_over_mass(rest)
            r = rest[src]
            if exact:
                weight = weight[src] * np.array(
                    [math.comb(k, j) for k, j in zip(r.tolist(), c.tolist())], dtype=object)
            else:
                weight = weight[src] + (log_fact[r] - log_fact[c] - log_fact[r - c])
            mass, q = mass[src] + c, q[src] + c * c
        order = np.lexsort((q, mass))
        mass, q = mass[order], q[order]
        starts = np.flatnonzero((np.diff(mass, prepend=-1) != 0) | (np.diff(q, prepend=-1) != 0))
        weight = merge.reduceat(weight[order], starts)
        mass, q = mass[starts], q[starts]
    return q, weight if exact else weight - logsumexp(weight)


def _reference_terms(L, n, lam, D, law, statistic):
    """Terms from a law: one power (2s)^d per degree on the exact path, one
    log-sum-exp call per degree on the float path."""
    q, weight = law
    twice_s = L * q - n * n if statistic == "pearson" else 2 * L * q
    if weight.dtype == object:
        twice_s = twice_s.astype(object)
        return tuple(Fraction(lam) ** (2 * d) * Fraction(
            int((weight * twice_s ** d).sum()), 2 ** d * L ** n * n ** d * math.factorial(d))
            for d in range(D + 1))
    pos = twice_s > 0
    logs, logw = np.log(0.5 * twice_s[pos]), weight[pos]
    terms = [1.0]
    for d in range(1, D + 1):
        log_td = (2 * d * np.log(lam) if lam > 0 else -np.inf) \
            + logsumexp(logw + d * logs) - d * np.log(n) - gammaln(d + 1)
        terms.append(float(np.exp(log_td)))
    return tuple(terms)


@pytest.mark.parametrize("L,ns", [(2, (1, 2, 3, 7, 16, 57, 128, 400)),
                                  (3, (1, 2, 3, 5, 16, 57, 128, 400)),
                                  (5, (1, 2, 5, 16, 40)),
                                  (9, (1, 2, 5, 12))])
def test_multinomial_terms_equal_lexsort_reference(L, ns):
    # term d does not depend on D, so the degree-60 reference serves every D
    for n, exact in itertools.product(ns, (False, True)):
        law = _reference_law(L, n, exact)
        for lam, statistic in itertools.product((0.0, 0.9, 1.5), ("pearson", "all_frequencies")):
            want = _reference_terms(L, n, lam, 60, law, statistic)
            for D in (0, 1, int(n ** 0.3), 60):
                got = ldlr_exact_multinomial(L, n, lam, D, exact=exact,
                                             statistic=statistic).terms
                assert got == want[:D + 1], (L, n, D, lam, statistic, exact)


@pytest.mark.parametrize("rows", [1, 7, 59, 60, 61])
def test_chunked_degrees_equal_one_chunk(monkeypatch, rows):
    # 59 rows leave degree 60 alone in the second chunk
    L, n = 3, 50
    law = _reference_law(L, n, False)
    blocks = []

    def logsumexp_recorded(a, axis=None):
        if a.ndim == 2:
            blocks.append(a.shape)
        return logsumexp(a, axis=axis)

    monkeypatch.setattr(ldlr, "logsumexp", logsumexp_recorded)
    for statistic in ("pearson", "all_frequencies"):
        q = law[0]
        values = int(((L * q - n * n if statistic == "pearson" else q) > 0).sum())
        monkeypatch.setattr(ldlr, "_CHUNK_ENTRIES", rows * values + values - 1)
        blocks.clear()
        got = ldlr_exact_multinomial(L, n, 0.9, 60, statistic=statistic).terms
        assert got == _reference_terms(L, n, 0.9, 60, law, statistic), statistic
        assert [r for r, _ in blocks] == [rows] * (60 // rows) + [60 % rows] * (60 % rows > 0)
        assert all(r * v <= ldlr._CHUNK_ENTRIES for r, v in blocks)


def test_two_cells_past_the_key_range_of_mass_times_q():
    # at n = 3e6 a key mass * (n^2 + 1) + Q would pass 2^63; cell 0 needs no
    # sort and the last cell's key is Q alone
    n = 3 * 10 ** 6
    assert n * (n * n + 1) > np.iinfo(np.int64).max
    rep = ldlr_exact_multinomial(2, n, 0.9, 1, budget=n + 1)
    assert rep.terms[1] == pytest.approx(0.9 ** 2 / 2, rel=1e-9)    # E s = n (L-1) / 2


def test_sort_key_overflow_is_refused_before_allocating(monkeypatch):
    monkeypatch.setattr(ldlr, "_occupancy_law", lambda *a: pytest.fail("law was built"))
    n = 2_100_000
    with pytest.raises(ResourceLimitError, match="int64"):
        ldlr_exact_multinomial(3, n, 0.9, 1, budget=10 ** 13)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("lam,first", [(1e200, 1), (1e100, 2)])
def test_float_overflow_is_typed_without_a_warning(monkeypatch, lam, first):
    with pytest.raises(NumericalOverflowError, match=f"term {first} "):
        ldlr_exact_multinomial(3, 5, lam, 3)
    monkeypatch.setattr(ldlr, "_CHUNK_ENTRIES", 1)     # one degree per chunk
    with pytest.raises(NumericalOverflowError, match=f"term {first} "):
        ldlr_exact_multinomial(3, 5, lam, 3)


# ---------------------------------------------------------------------------
# Tuple-family counting
# ---------------------------------------------------------------------------

def test_md_count_degree_zero():
    assert md_count("circle", 3, 4, 0) == 1
    assert md_count("cyclic", 3, 4, 0) == 1


@pytest.mark.parametrize("L,n", [(2, 2), (2, 5), (3, 3), (4, 2), (5, 4)])
def test_md_count_degree_one(L, n):
    # exact-zero condition forces a = b, any frequency: L * n tuples
    assert md_count("circle", L, n, 1) == L * n
    # mod-L condition additionally admits the trivial residue frequency
    assert md_count("cyclic", L, n, 1) == L * n + n * (n - 1)


def test_md_circle_degree_two_closed_form():
    # zero-move pairs (Ln)^2 plus opposite nonzero moves L n (n-1)
    for L, n in ((2, 3), (3, 4), (2, 50)):
        assert md_count("circle", L, n, 2) == (L * n) ** 2 + L * n * (n - 1)


def test_md_containment_circle_in_cyclic():
    for L, n in ((2, 2), (3, 3), (4, 4)):
        for d in range(4):
            assert md_count("circle", L, n, d) <= md_count("cyclic", L, n, d)


def test_md_count_frozen_value():
    # computed by independent direct enumeration over [L]^d x [n]^d x [n]^d
    assert md_count("cyclic", 3, 3, 2) == 249


def test_md_count_matches_naive_enumeration():
    # independent oracle: literal loop over all tuples
    def naive(prior, L, n, d):
        moves = []
        for ell in range(1, L + 1):
            for a in range(n):
                for b in range(n):
                    v = [0] * n
                    v[a] += ell
                    v[b] -= ell
                    moves.append(v)
        count = 0
        for combo in itertools.product(moves, repeat=d):
            tot = [sum(col) for col in zip(*combo)] if combo else [0] * n
            if prior == "cyclic":
                ok = all(t % L == 0 for t in tot)
            else:
                ok = all(t == 0 for t in tot)
            count += ok
        return count

    shapes = [(prior, L, n, d) for prior in ("circle", "cyclic")
              for L, n, d in ((2, 2, 3), (3, 2, 2), (4, 3, 2))]
    for prior, L, n, d in shapes + [("circle", 1, 4, 3), ("cyclic", 2, 3, 3)]:
        want = [naive(prior, L, n, k) for k in range(d + 1)]
        assert ldlr._md_counts(prior, L, n, d, ldlr.MD_BUDGET) == want
        assert [md_count(prior, L, n, k) for k in range(d + 1)] == want


@pytest.mark.parametrize("call", [
    lambda budget: md_count("cyclic", 2, 3, 3, budget),
    lambda budget: ldlr_from_md("cyclic", 2, 3, 0.5, 3, budget=budget),
    lambda budget: ldlr_from_md("circle", 2, 3, 0.5, 3, exact=True, budget=budget),
], ids=["md_count", "ldlr_from_md-cyclic", "ldlr_from_md-circle"])
def test_md_budget_refuses_the_top_degree_before_any_move(monkeypatch, call):
    def no_moves(*args):
        raise AssertionError("a move was built before the budget was checked")
    monkeypatch.setattr(ldlr, "Counter", no_moves)
    with pytest.raises(ResourceLimitError):     # (L n^2)^2 = 324 fits, (L n^2)^3 does not
        call(18 ** 3 - 1)


def test_md_degree_zero_builds_no_move_and_the_move_table_is_budgeted(monkeypatch):
    def no_moves(*args):
        raise AssertionError("a move was built")
    monkeypatch.setattr(ldlr, "Counter", no_moves)
    assert ldlr._md_counts("circle", 1, 400, 0, ldlr.MD_BUDGET) == [1]
    assert md_count("cyclic", 3, 10 ** 4, 0) == 1
    # (L n^2)^1 = 1e8 fits the default budget; the table's L n^3 = 1e12 entries do not
    with pytest.raises(ResourceLimitError, match="move table"):
        md_count("circle", 1, 10 ** 4, 1)
    with pytest.raises(ResourceLimitError):     # a huge degree, refused by its logarithm
        md_count("circle", 1, 3, 10 ** 9)


def test_ldlr_from_md_circle_degree_one():
    rep = ldlr_from_md("circle", 4, 6, 0.5, 1)
    assert float(rep.cumulative) == pytest.approx(1 + 0.25 * 4, rel=1e-12)


def test_ldlr_from_md_agrees_with_all_frequency_multinomial():
    for L, n in ((2, 3), (3, 3), (4, 2)):
        md = ldlr_from_md("cyclic", L, n, 0.8, 3, exact=True)
        mn = ldlr_exact_multinomial(L, n, 0.8, 3, exact=True,
                                    statistic="all_frequencies")
        bf = ldlr_bruteforce_signals(L, n, 0.8, 3, exact=True,
                                     statistic="all_frequencies")
        assert md.terms == mn.terms == bf.terms


def test_circle_ldlr_below_cyclic_ldlr():
    for L, n in ((2, 4), (3, 4), (4, 5)):
        circle = ldlr_from_md("circle", L, n, 0.9, 3)
        cyclic = ldlr_from_md("cyclic", L, n, 0.9, 3)
        assert float(circle.cumulative) <= float(cyclic.cumulative)


# ---------------------------------------------------------------------------
# Monte-Carlo overlap route
# ---------------------------------------------------------------------------

def test_mc_zero_snr_exact():
    rep = ldlr_montecarlo_overlap(Model("cyclic", L=3, snr=0.0), 10, 3, 500, seed=1)
    assert rep.cumulative == 1.0
    assert rep.stderr[-1] == 0.0


def test_mc_circle_matches_md_route():
    mc = ldlr_montecarlo_overlap(Model("circle", L=2, snr=0.5), 50, 2, 10 ** 5,
                                 seed=2)
    md = ldlr_from_md("circle", 2, 50, 0.5, 2)
    assert abs(mc.cumulative - float(md.cumulative)) <= 3 * mc.stderr[-1]


def test_mc_cyclic_matches_exact_route():
    mc = ldlr_montecarlo_overlap(Model("cyclic", L=3, snr=0.8), 20, 3, 5 * 10 ** 4,
                                 seed=3)
    ex = ldlr_exact_multinomial(3, 20, 0.8, 3)
    assert abs(mc.cumulative - float(ex.cumulative)) <= 3 * mc.stderr[-1]


def test_mc_group_route_quaternionic():
    group, full = build_catalog("quaternion8")
    model = Model("group", snr=0.6, group=group, irreps=full.nonredundant())
    mc = ldlr_montecarlo_overlap(model, 10, 2, 3 * 10 ** 4, seed=4)
    ex = ldlr_exact_multinomial(8, 10, 0.6, 2)
    assert abs(mc.cumulative - float(ex.cumulative)) <= 3 * mc.stderr[-1]


def test_mc_stderr_is_standard_error_of_the_mean():
    model, n, D, samples = Model("cyclic", L=4, snr=0.7), 15, 3, 2000
    rep = ldlr_montecarlo_overlap(model, n, D, samples, seed=11)
    omega = sample_overlaps(model, n, samples, seed=11)
    totals = [math.fsum(w ** d / math.factorial(d) for d in range(D + 1)) for w in omega]
    mean = math.fsum(totals) / samples
    se = math.sqrt(math.fsum((t - mean) ** 2 for t in totals) / (samples - 1) / samples)
    assert rep.stderr[-1] == pytest.approx(se, rel=1e-12)
    assert rep.cumulative == pytest.approx(mean, rel=1e-12)
    assert len(rep.stderr) == D + 2


def test_mc_memory_is_linear_in_samples():
    # the draws take samples * n int64 entries; no (D+1) x resamples x samples array
    model, n, D, samples = Model("cyclic", L=3, snr=0.9), 50, 4, 10 ** 5
    tracemalloc.start()
    try:
        ldlr_montecarlo_overlap(model, n, D, samples, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * samples * (n + D) * 8


@pytest.mark.parametrize("chunk", [7, 12, 64])
@pytest.mark.parametrize("order,n,samples", [(3, 5, 23), (8, 3, 40), (4, 11, 9)])
def test_chunked_counts_match_one_draw(monkeypatch, chunk, order, n, samples):
    # chunks of chunk // n rows; some hold an odd number of draws (1 x 5, 21 x 3, 5 x 11)
    monkeypatch.setattr(ldlr, "_CHUNK_ENTRIES", chunk)
    got = ldlr._draw_counts(make_rng(4, 71), order, samples, n)
    u = make_rng(4, 71).integers(0, order, size=(samples, n))
    want = np.stack([(u == g).sum(axis=1) for g in range(order)], axis=1)
    assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("name", ["cyclic", "quaternion8"])
def test_mc_memory_does_not_scale_with_draws(name):
    # samples * n = 1e7 indices, 80 MB as one int64 draw; the route holds at
    # most two chunks of about 2^20 of them plus O(samples * (order + D))
    if name == "cyclic":
        model, order = Model("cyclic", L=3, snr=0.9), 3
    else:
        group, full = build_catalog(name)
        model, order = Model("group", snr=0.9, group=group, irreps=full.nonredundant()), 8
    n, D, samples = 10 ** 4, 3, 1000
    tracemalloc.start()
    try:
        rep = ldlr_montecarlo_overlap(model, n, D, samples, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2 ** 20 * 8
    # t_1 = lam^2 E[s] / n = lam^2 (L - 1) / 2 at every n
    assert abs(rep.terms[1] - 0.81 * (order - 1) / 2) <= 4 * rep.stderr[1]


def test_mc_requires_min_samples():
    with pytest.raises(InvalidParameterError):
        ldlr_montecarlo_overlap(Model("cyclic", L=3, snr=0.5), 10, 2, 50, seed=0)


@pytest.mark.parametrize("call", [
    lambda m: sample_overlaps(m, 0, 200),
    lambda m: sample_overlaps(m, -3, 200),
    lambda m: sample_overlaps(m, 10, 0),
    lambda m: sample_overlaps(m, 10, -1),
    lambda m: ldlr_montecarlo_overlap(m, 0, 2, 200),
    lambda m: ldlr_montecarlo_overlap(m, -3, 2, 200),
], ids=["overlaps-n0", "overlaps-n-3", "overlaps-samples0", "overlaps-samples-1",
        "mc-n0", "mc-n-3"])
def test_mc_rejects_bad_sizes_before_drawing(monkeypatch, call):
    def no_draws(*args):
        raise AssertionError("a generator was built before the sizes were checked")
    monkeypatch.setattr(ldlr, "make_rng", no_draws)
    with pytest.raises(InvalidParameterError) as exc:
        call(Model("cyclic", L=3, snr=0.5))
    assert type(exc.value) is InvalidParameterError


@pytest.mark.parametrize("name", ["cyclic(6)", "dihedral(3)", "dihedral(4)",
                                  "quaternion8"])
def test_group_overlap_equals_count_statistic(name):
    group, full = build_catalog(name)
    nr = full.nonredundant()
    rng = np.random.default_rng(5)
    for _ in range(25):
        counts = rng.multinomial(23, [1 / group.order] * group.order)
        got = group_overlap_stat(group, nr, counts)
        assert got == pytest.approx(float(s_stat(counts)), abs=1e-9)


@pytest.mark.parametrize("name", ["cyclic(6)", "dihedral(3)", "dihedral(4)",
                                  "quaternion8"])
def test_group_overlap_batched_equals_rowwise(name):
    group, full = build_catalog(name)
    nr = full.nonredundant()
    counts = np.random.default_rng(8).multinomial(23, [1 / group.order] * group.order,
                                                  size=40)
    got = group_overlap_stat(group, nr, counts)
    want = np.array([group_overlap_stat(group, nr, c) for c in counts])
    assert got.shape == (40,)
    assert np.allclose(got, want, rtol=1e-12, atol=0.0)
    assert group_overlap_stat(group, nr, counts.reshape(4, 10, -1)).shape == (4, 10)


def test_all_freq_stat_identity():
    # L * sum n_g^2 = 2 s + n^2
    counts = [3, 0, 2, 4]
    all_freq = Fraction(_twice_stat(counts, 4, "all_frequencies"), 2)
    assert all_freq == 4 * sum(c * c for c in counts) == 2 * s_stat(counts) + sum(counts) ** 2


def test_pearson_chi_square_mean():
    # (2/n) s has mean L-1; Monte Carlo at n = 1e5 over 1e4 draws
    rng = np.random.default_rng(6)
    L, n = 3, 10 ** 5
    counts = rng.multinomial(n, [1 / L] * L, size=10 ** 4)
    s = 0.5 * (L * (counts.astype(float) ** 2).sum(axis=1) - float(n) ** 2)
    assert (2 / n) * s.mean() == pytest.approx(L - 1, rel=0.02)


# ---------------------------------------------------------------------------
# Polylogarithm bound
# ---------------------------------------------------------------------------

def test_polylog_closed_form_order_two():
    # sum k^2 z^k = z (1+z) / (1-z)^3
    z = 0.5
    assert polylog_neg(2, z) == pytest.approx(z * (1 + z) / (1 - z) ** 3, rel=1e-12)
    assert polylog_neg(2, z) == pytest.approx(6.0, rel=1e-12)


@pytest.mark.parametrize("order,z", list(itertools.product(
    range(31), [1e-4, 1e-3, 0.01, 0.1, 0.25, 0.5, 0.81, 0.9, 0.99, 0.999])))
def test_polylog_against_mpmath(order, z):
    with mpmath.workdps(40):
        want = float(mpmath.polylog(-order, mpmath.mpf(z)))
    assert polylog_neg(order, z) == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("order", [2.5, -1])
def test_polylog_rejects_bad_order(order):
    with pytest.raises(InvalidParameterError):
        polylog_neg(order, 0.5)


def test_polylog_overflow_is_typed():
    # order 100 passes the float range between z = 0.968 and 0.969, where
    # every term is still finite; the larger orders fail on their largest
    # term, before any coefficient is built
    with mpmath.workdps(40):
        assert polylog_neg(100, 0.968) == pytest.approx(
            float(mpmath.polylog(-100, mpmath.mpf(0.968))), rel=1e-13)
    for order, z in [(100, 0.969), (200, 0.5), (10 ** 6, 0.5)]:
        with pytest.raises(NumericalOverflowError):
            polylog_neg(order, z)


def test_bound_polylog_zero_and_divergence():
    assert polylog_neg(4, 0.0) == 0.0
    for z in (1.0, 2.25):
        with pytest.raises(DivergentSeriesError):
            polylog_neg(4, z)


def test_report_requires_terms():
    with pytest.raises(InvalidParameterError):
        LdlrReport((), "exact-multinomial", {})


def test_moment_table_values():
    mt = moment_table(3, 10, 3, exact=True)
    assert mt[0] == 1
    assert mt[1] == Fraction(10 * 2, 2)
    # degree-2 moment cross-checked against brute-force enumeration
    bf = ldlr_bruteforce_signals(3, 10, 1.0, 2, exact=True)
    assert mt[2] == bf.terms[2] * Fraction(10) ** 2 * 2


@pytest.mark.parametrize("D", [70, 110])   # n^d d! past the float range; n^d alone past it
def test_moment_table_overflow_is_typed(D):
    with pytest.raises(NumericalOverflowError):
        moment_table(3, 1000, D)


def test_sample_overlaps_mean():
    omega = sample_overlaps(Model("cyclic", L=4, snr=0.5), 10, 1000, seed=1)
    # E omega = lam^2/n * n(L-1)/2
    assert omega.shape == (1000,)
    assert omega.mean() == pytest.approx(0.25 * 1.5, rel=0.1)
    group, full = build_catalog("quaternion8")
    omega = sample_overlaps(Model("group", snr=1.0, group=group,
                                  irreps=full.nonredundant()), 6, 500, seed=2)
    assert omega.mean() == pytest.approx(1.0 * 7 / 2, rel=0.1)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_mc_overflow_detected():
    with pytest.raises(NumericalOverflowError):
        ldlr_montecarlo_overlap(Model("cyclic", L=3, snr=1e100), 10, 3, 200, seed=0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_mc_overflow_in_stderr_detected():
    # the powers stay finite near 1e200, but their variance would not
    with pytest.raises(NumericalOverflowError):
        ldlr_montecarlo_overlap(Model("cyclic", L=3, snr=1e50), 10, 2, 200, seed=0)
