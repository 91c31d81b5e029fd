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
            check_t_recursion(3, bounds._TUPLE_BUDGET, k, [1.0] * k, 0)


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
