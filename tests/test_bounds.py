import importlib
import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from scipy.stats import binom

import groupsynch
from groupsynch import bounds
from groupsynch.bounds import (_centered_binomial_moments, _clt_checks, _partial_tuples,
                               check_clt_moment_bound, check_l3_moment_bound,
                               check_t_recursion)
from groupsynch.errors import InvalidParameterError, NumericalOverflowError, ResourceLimitError


def test_import_does_not_load_scipy_stats():
    # scipy.stats alone about doubles the package's import time; bounds loads it on use
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(groupsynch.__file__))}
    code = "import sys, groupsynch; sys.exit('scipy.stats' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_clt_rademacher_alpha_one_exact_values():
    res = check_clt_moment_bound("rademacher", 100, 1)
    # E (sum X)^2 = n exactly; bound 4 * 2 * Gamma(3) * 1 * n = 16 n
    assert res.lhs == pytest.approx(100.0, rel=1e-12)
    assert res.rhs == pytest.approx(1600.0, rel=1e-12)
    assert res.holds


def test_clt_alpha_zero():
    res = check_clt_moment_bound("rademacher", 50, 0)
    assert res.lhs == pytest.approx(1.0, rel=1e-12)
    assert res.rhs == pytest.approx(4.0, rel=1e-12)
    assert res.holds


def test_clt_bernoulli_exact_cross_check():
    # fourth absolute moment of centered Binomial(n, p) against a rational sum
    n, p = 50, Fraction(1, 3)
    res = check_clt_moment_bound(("bernoulli", 1 / 3), n, 2)
    exact = Fraction(0)
    comb = 1
    for k in range(n + 1):
        prob = Fraction(comb) * p ** k * (1 - p) ** (n - k)
        exact += prob * (Fraction(k) - n * p) ** 4
        comb = comb * (n - k) // (k + 1)
    assert res.lhs == pytest.approx(float(exact), rel=1e-10)
    assert res.holds


def test_clt_fractional_alpha():
    res = check_clt_moment_bound(("bernoulli", 0.25), 200, 2.5)
    assert res.holds
    assert res.lhs > 0


def test_clt_parameter_validation():
    with pytest.raises(InvalidParameterError):
        check_clt_moment_bound("rademacher", 100, 11)
    with pytest.raises(InvalidParameterError):
        check_clt_moment_bound("rademacher", 10 ** 5, 2)
    with pytest.raises(InvalidParameterError):
        check_clt_moment_bound(("bernoulli", 1.5), 100, 2)
    with pytest.raises(InvalidParameterError):
        check_clt_moment_bound("rademacher", 10, float("nan"))
    with pytest.raises(InvalidParameterError):      # not a NaN check with holds=False
        check_clt_moment_bound("rademacher", 10.5, 1)


@pytest.mark.parametrize("n,alpha,gamma", [(-1, (1, 1), 0),
                                           (5, (1, float("nan")), 0),
                                           (5, (1, float("inf")), 0),
                                           (5, (1, 1), float("nan")),
                                           (5, (1, 1), float("inf"))])
def test_t_recursion_rejects_bad_input(n, alpha, gamma):
    with pytest.raises(InvalidParameterError):
        check_t_recursion(4, n, 2, alpha, gamma)


@pytest.mark.parametrize("p", [1 / 3, 0.5, 0.9])
@pytest.mark.parametrize("two_alpha", [0, 1, 2.5, 8])
def test_centered_binomial_moments_match_per_m_sums(p, two_alpha):
    ms = np.arange(41)
    want = [math.fsum(binom.pmf(np.arange(m + 1), m, p)
                      * np.abs(np.arange(m + 1) - m * p) ** two_alpha) for m in ms]
    # every m at once, and in an order that puts small m after large
    assert _centered_binomial_moments(ms, p, two_alpha).tolist() == want
    assert _centered_binomial_moments(ms[::-1], p, two_alpha).tolist() == want[::-1]


def test_centered_binomial_moments_share_one_pmf_row_across_exponents(monkeypatch):
    ms, exps = np.arange(41), [0, 1, 2.5, 8]
    want = np.stack([_centered_binomial_moments(ms, 0.3, a) for a in exps], axis=1)
    monkeypatch.setattr(bounds, "_CHUNK_ENTRIES", 200)      # several chunks
    got = _centered_binomial_moments(ms, 0.3, exps)
    assert got.shape == (41, 4) and got.tolist() == want.tolist()


def _fsums(x):
    return [math.fsum(row) for row in x]


def _same(got, want):
    """Equal bit for bit, NaN included."""
    return np.asarray(got).tobytes() == np.asarray(want, dtype=float).tobytes()


def test_exact_row_sums_equal_fsum_on_the_default_clt_rows():
    alphas = [0.5, 1, 1.5, 2, 3, 4, 5, 6, 8, 10]
    for p in (0.5, 0.1, 0.25, 1 / 3, 2 / 3, 0.9):
        for n in (30, 100, 300, 1000, 3000, 10000):
            ks = np.arange(n + 1)
            pmf, dev = binom.pmf(ks, n, p), np.abs(ks - n * p)
            x = np.stack([pmf * dev ** (2 * a) for a in alphas])
            want = _fsums(x)
            assert _same(bounds._exact_row_sums(x), want), (p, n)
            assert _same(bounds._limb_sums(x), want), (p, n)


def test_exact_row_sums_equal_fsum_from_subnormals_to_2_to_the_1000():
    rng = np.random.default_rng(5)
    for cols in (1, 2, 3, 50, bounds._FSUM_BELOW, 1000):
        # exponents across the whole range, a mantissa of random bits, and exact zeros
        x = np.ldexp(rng.random((40, cols)), rng.integers(-1074, 1001, (40, cols)))
        x[rng.random((40, cols)) < 0.2] = 0.0
        x[0] = 0.0
        x[1] = 5e-324
        want = _fsums(x)
        assert _same(bounds._exact_row_sums(x), want), cols
        assert _same(bounds._limb_sums(x), want), cols


def test_exact_row_sums_single_entries_and_a_sum_in_the_subnormal_range():
    single = np.array([[0.0], [5e-324], [2.2250738585072014e-308], [1.0], [1.7976931348623157e308]])
    assert _same(bounds._limb_sums(single), single[:, 0])
    assert _same(bounds._exact_row_sums(single), single[:, 0])
    # subnormals summing to a subnormal, and to a normal
    tiny = np.ldexp(np.arange(1.0, bounds._FSUM_BELOW + 1), [[-1074], [-1030]])
    want = _fsums(tiny)
    assert want[0] < 2.2250738585072014e-308 < want[1] and tiny.max() < 2.2250738585072014e-308
    assert _same(bounds._exact_row_sums(tiny), want) and _same(bounds._limb_sums(tiny), want)


@pytest.mark.parametrize("cols", [bounds._FSUM_BELOW - 1, bounds._FSUM_BELOW])
def test_exact_row_sums_with_inf_nan_or_negatives_keep_fsum(cols):
    rng = np.random.default_rng(cols)
    x = rng.random((6, cols))
    x[0, 3], x[1, 0], x[2, -1] = math.inf, math.nan, -0.25
    x[3, 1], x[3, 2] = math.inf, math.nan
    x[4, 5] = -0.0
    assert _same(bounds._exact_row_sums(x), _fsums(x))


@pytest.mark.parametrize("cols", [bounds._FSUM_BELOW - 1, bounds._FSUM_BELOW])
def test_both_sums_equal_fsum_on_each_side_of_the_cutover(cols):
    rng = np.random.default_rng(cols)
    x = np.exp(rng.uniform(-745, 700, (37, cols)))
    want = _fsums(x)
    assert _same(bounds._limb_sums(x), want)
    assert _same(bounds._exact_row_sums(x), want)


def test_limb_sums_stay_exact_at_the_longest_row_they_take():
    # an all-ones mantissa at a shift divisible by 32 puts 2^32 - 1 in the lowest limb
    # of every entry: 2^21 of them sum to 2^53 - 2^21, still exact
    top = (2 - 2.0 ** -52) * 2.0 ** -1011
    x = np.full((1, bounds._LIMB_COLUMNS), top)
    assert bounds._limb_sums(x)[0] == top * 2 ** 21
    assert bounds._exact_row_sums(x)[0] == top * 2 ** 21
    longer = np.full((1, bounds._LIMB_COLUMNS + 1), 1.0)      # past it: fsum
    assert bounds._exact_row_sums(longer)[0] == 2 ** 21 + 1


def test_a_row_sum_past_the_float_range_raises_overflow_like_fsum():
    for cols in (bounds._FSUM_BELOW - 1, bounds._FSUM_BELOW):
        x = np.full((2, cols), 1e307)
        x[0] = 1.0
        with pytest.raises(OverflowError):
            math.fsum(x[1])
        with pytest.raises(OverflowError):
            bounds._exact_row_sums(x)
    with pytest.raises(OverflowError):
        bounds._limb_sums(x)


def test_t_recursion_turns_an_overflowing_moment_sum_into_a_typed_error(monkeypatch):
    # no pmf row passes the float range while its entries are finite (each is at most
    # its pmf times the largest deviation's power), so the sum is fed a row that does
    real = bounds._exact_row_sums
    monkeypatch.setattr(bounds, "_exact_row_sums",
                        lambda x: real(np.full((len(x), bounds._FSUM_BELOW), 1e307)))
    with pytest.raises(NumericalOverflowError):
        check_t_recursion(3, 10, 2, [1.0, 1.0], 0)


def test_clt_batch_matches_each_point_of_the_default_grid():
    alphas = [0, 0.5, 1, 1.5, 2, 3, 4, 5, 6, 8, 10]
    distros = ["rademacher"] + [("bernoulli", p) for p in (0.1, 0.25, 1 / 3, 0.5, 2 / 3, 0.9)]
    for dist in distros:
        p = 0.5 if dist == "rademacher" else dist[1]
        for n in (30, 100, 300, 1000, 3000, 10000):
            ks = np.arange(n + 1)
            pmf, dev = binom.pmf(ks, n, p), np.abs(ks - n * p)
            for alpha, got in zip(alphas, _clt_checks(dist, n, alphas)):
                one = check_clt_moment_bound(dist, n, alpha)
                assert (got.lhs, got.rhs, got.holds) == (one.lhs, one.rhs, one.holds)
                assert got.detail == one.detail
                # the left side as one exact sum per point, independently of the batch
                base = 4.0 if dist == "rademacher" else 1.0
                assert got.lhs == base ** alpha * math.fsum(pmf * dev ** (2 * alpha))


@pytest.mark.parametrize("alphas", [[1, 2, 11], [math.nan, 1], [-1], [0, 10.5, 2]])
def test_clt_batch_refuses_a_bad_alpha_before_any_pmf(monkeypatch, alphas):
    def computed(*args, **kwargs):
        raise AssertionError("a pmf row was computed")
    monkeypatch.setattr(bounds, "_centered_binomial_moments", computed)
    with pytest.raises(InvalidParameterError, match="alpha"):
        _clt_checks("rademacher", 100, alphas)


def test_clt_grid_holds():
    for dist in ("rademacher", ("bernoulli", 0.5), ("bernoulli", 0.1)):
        for n in (10, 100, 1000):
            for alpha in (0.5, 1, 2, 4, 8, 10):
                assert check_clt_moment_bound(dist, n, alpha).holds


# ---------------------------------------------------------------------------
# Elimination-step inequality
# ---------------------------------------------------------------------------

def _lhs_direct(L, n, k, alpha, gamma, cond):
    """Literal conditional expectation for one conditioning tuple."""
    from scipy.stats import binom
    t = 1.0
    rem = float(n)
    for ell in range(1, k):
        t *= abs(rem / (L - ell + 1) - cond[ell - 1]) ** (2 * alpha[ell - 1])
        rem -= cond[ell - 1]
    m = n - sum(cond)
    p = 1.0 / (L - k + 1)
    ks = np.arange(m + 1)
    inner = float((binom.pmf(ks, m, p) * np.abs(m * p - ks) ** (2 * alpha[-1])).sum())
    return t * m ** gamma * inner


def test_t_recursion_trivial_exponents():
    res = check_t_recursion(3, 12, 2, [0, 0], 0)
    assert res.holds
    # all-zero exponents: every conditional expectation is 1, bound >= 4
    assert res.lhs == pytest.approx(1.0, rel=1e-12)
    assert res.rhs >= 4.0


def test_t_recursion_examples_hold():
    assert check_t_recursion(3, 30, 2, [1, 1], 0).holds
    assert check_t_recursion(4, 20, 3, [0, 1, 2], 1).holds


def test_t_recursion_lhs_matches_direct_evaluation():
    for L, n, k, alpha, gamma in ((4, 9, 3, [1.0, 0.5, 1.5], 1.0),
                                  (3, 15, 1, [2.5], 2.0),
                                  (5, 7, 4, [0.5, 1.0, 0.0, 1.5], 1.0)):
        res = check_t_recursion(L, n, k, alpha, gamma)
        worst = res.detail["worst_tuple"]
        assert len(worst) == k - 1
        assert res.lhs == pytest.approx(_lhs_direct(L, n, k, alpha, gamma, worst),
                                        rel=1e-10)


@pytest.mark.parametrize("width", [0, 1, 2, 3])
@pytest.mark.parametrize("n", [0, 1, 7])
def test_partial_tuples_match_product_filter(n, width):
    want = [t for t in itertools.product(range(n + 1), repeat=width) if sum(t) <= n]
    got = _partial_tuples(n, width)
    assert got.shape == (len(want), width)
    assert [tuple(row) for row in got.tolist()] == want


def test_t_recursion_memory_is_bounded():
    tracemalloc.start()
    try:
        res = check_t_recursion(3, 2000, 2, [1, 1], 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.holds and res.detail["tuples"] == 2001
    assert peak < 32 * 2 ** 20


def test_t_recursion_k1():
    res = check_t_recursion(3, 30, 1, [2], 2)
    assert res.holds
    assert res.detail["tuples"] == 1


def test_t_recursion_k1_budgets_its_binomial_row(monkeypatch):
    # one conditioning tuple, but a pmf row of n + 1 entries, as many as k = 2's tuples
    def no_moments(*args):
        raise AssertionError("a binomial row was built before the budget was checked")
    monkeypatch.setattr(bounds, "_centered_binomial_moments", no_moments)
    for k in (1, 2):
        with pytest.raises(ResourceLimitError):
            check_t_recursion(3, bounds._T_RECURSION_BUDGET, k, [1.0] * k, 0)


def test_t_recursion_k2_budgets_its_pmf_rows_before_any_tuple(monkeypatch):
    # n + 1 tuples, but one pmf row per remaining mass 0..n: (n + 1)(n + 2) / 2 entries
    class Admitted(Exception):
        pass

    def admitted(*args):
        raise Admitted

    def no_rows(*args):
        raise AssertionError("a tuple or a pmf row was built before the budget was checked")
    monkeypatch.setattr(bounds, "_centered_binomial_moments", no_rows)
    monkeypatch.setattr(bounds, "_partial_tuples", no_rows)
    top = max(n for n in range(3000) if (n + 1) * (n + 2) // 2 <= bounds._T_RECURSION_BUDGET)
    for n in (top + 1, 10 ** 5, 10 ** 6):
        with pytest.raises(ResourceLimitError, match="binomial pmf entries"):
            check_t_recursion(3, n, 2, [0.0, 0.0], 0)
    monkeypatch.setattr(bounds, "_partial_tuples", admitted)
    with pytest.raises(Admitted):
        check_t_recursion(3, top, 2, [0.0, 0.0], 0)


@pytest.mark.parametrize("alpha,gamma", [([1.0, 100], 0.5), ([1.0, 1.0], 700), ([1.0], 1000)])
def test_t_recursion_overflow_is_typed(alpha, gamma):
    # K(100) = 4 * 2^100 * 200! and 30^700 leave the float range
    with pytest.raises(NumericalOverflowError):
        check_t_recursion(3, 30, len(alpha), alpha, gamma)


def test_t_recursion_budgets_its_right_side_terms_before_the_sides(monkeypatch):
    # n = 30 and k = 2 give 31 tuples, each with M + 1 right-side terms, where
    # M = ceil(alpha_2 + gamma) = 1 + gamma for an integer gamma
    top = bounds._T_RECURSION_BUDGET // 31 - 1    # the largest M admitted
    with pytest.raises(NumericalOverflowError):     # admitted: C(M, beta) leaves the float range
        check_t_recursion(3, 30, 2, [1.0, 1.0], top - 1)

    def no_moments(*args):
        raise AssertionError("a side was computed before the budget was checked")
    monkeypatch.setattr(bounds, "_centered_binomial_moments", no_moments)
    for gamma in (top, 1e12):
        with pytest.raises(ResourceLimitError):
            check_t_recursion(3, 30, 2, [1.0, 1.0], gamma)


def test_t_recursion_validation():
    with pytest.raises(InvalidParameterError):
        check_t_recursion(2, 10, 1, [1], 0)
    with pytest.raises(InvalidParameterError):
        check_t_recursion(4, 10, 2, [1], 0)  # wrong alpha length
    with pytest.raises(InvalidParameterError):
        check_t_recursion(4, 10, 2, [1, -1], 0)


def test_t_recursion_grid_subset():
    for L in (3, 4):
        for n in (10, 20):
            for k in range(1, L):
                for alpha in ([1] * k, [2] + [0] * (k - 1)):
                    for gamma in (0, 2):
                        res = check_t_recursion(L, n, k, alpha, gamma)
                        assert res.holds, (L, n, k, alpha, gamma, res)


def test_t_recursion_grid_matches_each_point_from_one_moments_call(monkeypatch):
    alphas, gammas = [(1, 0, 2), (0, 2, 0), (2.5, 0.5, 1), (1, 2, 2)], [0, 1, 2.5]
    want = [check_t_recursion(5, 12, 3, alpha, gamma)
            for alpha, gamma in itertools.product(alphas, gammas)]
    calls = []
    real = bounds._centered_binomial_moments
    monkeypatch.setattr(bounds, "_centered_binomial_moments",
                        lambda *args: calls.append(args[2]) or real(*args))
    got = bounds._t_recursion_checks(5, 12, 3, alphas, gammas)
    assert calls == [[0.0, 2.0, 4.0]]      # alpha-major, one exponent per distinct alpha_k
    assert [(c.lhs, c.rhs, c.holds, c.detail) for c in got] == \
        [(c.lhs, c.rhs, c.holds, c.detail) for c in want]


def test_t_recursion_grid_budgets_its_largest_m_before_the_sides(monkeypatch):
    def no_rows(*args):
        raise AssertionError("a tuple or a pmf row was built before the budget was checked")
    monkeypatch.setattr(bounds, "_centered_binomial_moments", no_rows)
    monkeypatch.setattr(bounds, "_partial_tuples", no_rows)
    top = bounds._T_RECURSION_BUDGET // 31 - 1    # the largest M admitted at n = 30, k = 2
    with pytest.raises(ResourceLimitError):
        bounds._t_recursion_checks(3, 30, 2, [[1.0, 1.0], [0.0, 0.0]], [0, top])


def test_t_recursion_k1_limb_sums_walk_their_row_in_blocks():
    # one pmf row of 2·10^6 entries (16 MB), summed in blocks of columns
    tracemalloc.start()
    try:
        res = check_t_recursion(3, 1_999_999, 1, [0.0], 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.holds
    assert peak <= 160 * 2 ** 20


# ---------------------------------------------------------------------------
# Order-3 moment bound
# ---------------------------------------------------------------------------

def test_l3_first_moment_row():
    rows = check_l3_moment_bound(1000, 1)
    assert rows[0].lhs == pytest.approx(1000.0, rel=1e-9)
    assert rows[0].rhs == pytest.approx(8000.0, rel=1e-12)
    assert rows[0].holds


def test_l3_degrees_up_to_nine():
    rows = check_l3_moment_bound(1000, 9)
    assert len(rows) == 9
    assert all(r.holds for r in rows)
    assert all(r.detail["in_regime"] for r in rows)


def test_l3_rhs_is_the_rounded_integer_bound():
    for n, d_max in ((1000, 9), (64, 4), (1, 1)):
        for d, row in enumerate(check_l3_moment_bound(n, d_max), start=1):
            assert row.rhs == float(8 * n ** d * d * d * math.factorial(d))


@pytest.mark.parametrize("d_max", [69, 110])   # the right side alone overflows; both do
def test_l3_overflow_is_typed(d_max):
    with pytest.raises(NumericalOverflowError):
        check_l3_moment_bound(1000, d_max)


@pytest.mark.parametrize("d_max", [69, 110])
def test_l3_overflow_raises_before_the_moments(d_max, monkeypatch):
    def no_moments(*args, **kwargs):
        raise AssertionError("moments computed although the right side overflows")

    monkeypatch.setattr(importlib.import_module("groupsynch.bounds"), "moment_table",
                        no_moments)
    with pytest.raises(NumericalOverflowError):
        check_l3_moment_bound(1000, d_max)


def test_l3_regime_warning():
    with pytest.warns(RuntimeWarning):
        rows = check_l3_moment_bound(30, 4)
    assert rows[-1].detail["in_regime"] is False


def test_l3_degree_zero_excluded():
    with pytest.raises(InvalidParameterError):
        check_l3_moment_bound(100, 0)


def test_l3_rejects_empty_sample():
    with pytest.raises(InvalidParameterError):
        check_l3_moment_bound(0, 1)


def test_l3_matches_exact_multinomial_moment():
    from groupsynch.ldlr import ldlr_exact_multinomial
    n = 40
    rows = check_l3_moment_bound(n, 3)
    rep = ldlr_exact_multinomial(3, n, 1.0, 3, exact=True)
    for d in (1, 2, 3):
        e_sd = rep.terms[d] * Fraction(n) ** d * math.factorial(d)
        assert rows[d - 1].lhs == pytest.approx(float(e_sd), rel=1e-9)
