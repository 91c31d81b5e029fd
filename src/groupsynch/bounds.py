"""Numerical verification of the moment inequalities behind the LDLR bounds.

Three checkable inequalities:

  * :func:`check_clt_moment_bound` — for centered i.i.d. sums with a
    moment generating function,
    E |sum X_i|^(2a)  <=  4 * 2^a * Gamma(2a + 1) * sigma^(2a) * n^a,
    evaluated exactly by summing over the (binomial) support.

  * :func:`check_t_recursion` — the one-variable elimination step for
    moments of multinomial counts.  With T_{k,alpha} the product of the
    first k centered-count factors (each to the 2*alpha_ell power) and the
    counts revealed one at a time, conditioning on n_1..n_{k-1} leaves
    n_k binomial, and

      E[ T_{k,alpha} * (n - sum_{j<k} n_j)^gamma | n_1..n_{k-1} ]
        <=  K(alpha_k) * ((L-k)/(L-k+1)^2)^alpha_k
            * sum_{beta=0}^{M} C(M, beta) * ((L-k+1)/(L-k+2))^(M-beta)
              * (n - sum_{j<k-1} n_j)^(M-beta)
              * T_{k-1, (alpha_1..alpha_{k-2}, alpha_{k-1} + beta/2)}

    with M = ceil(alpha_k + gamma) and K(a) = 4 * 2^a * Gamma(2a + 1),
    the constant delivered by the moment bound above.  The left side is
    evaluated exactly from the conditional binomial law, for every
    reachable conditioning tuple.

  * :func:`check_l3_moment_bound` — for the order-3 count statistic,
    E s^d <= 8 * n^d * d^2 * d!, checked from exact multinomial moments.
"""
from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.stats import binom

from .errors import InvalidParameterError, ResourceLimitError
from .ldlr import ldlr_exact_multinomial

__all__ = [
    "BoundCheck",
    "check_clt_moment_bound",
    "check_t_recursion",
    "check_l3_moment_bound",
]


@dataclass(frozen=True)
class BoundCheck:
    lhs: float
    rhs: float
    holds: bool
    detail: dict


def _moment_constant(a: float) -> float:
    return 4.0 * 2.0 ** a * math.gamma(2 * a + 1)


def check_clt_moment_bound(distribution, n: int, alpha: float) -> BoundCheck:
    """Exact 2*alpha absolute moment of a centered i.i.d. sum vs its bound.

    ``distribution`` is "rademacher" or ("bernoulli", p); the sum's law is a
    shifted binomial either way, so the left side is an exact finite sum.
    """
    if alpha < 0 or alpha > 10:
        raise InvalidParameterError("alpha must lie in [0, 10]")
    if n < 1 or n > 10 ** 4:
        raise InvalidParameterError("n must lie in [1, 1e4]")
    if distribution == "rademacher":
        p, sigma2 = 0.5, 1.0
        support = 2.0 * np.arange(n + 1) - n
    else:
        kind, p = distribution
        if kind != "bernoulli" or not 0 < p < 1:
            raise InvalidParameterError(f"unknown distribution {distribution!r}")
        sigma2 = p * (1 - p)
        support = np.arange(n + 1) - n * p
    pmf = binom.pmf(np.arange(n + 1), n, p)
    lhs = float(math.fsum(pmf * np.abs(support) ** (2 * alpha)))
    rhs = _moment_constant(alpha) * sigma2 ** alpha * float(n) ** alpha
    return BoundCheck(lhs, rhs, lhs <= rhs,
                      {"distribution": str(distribution), "n": n, "alpha": alpha})


def _centered_binomial_moment_table(n: int, p: float, two_alpha: float) -> np.ndarray:
    """table[m] = E |Binomial(m, p) - m p|^(two_alpha), exactly, for m = 0..n."""
    table = np.empty(n + 1)
    for m in range(n + 1):
        ks = np.arange(m + 1)
        table[m] = math.fsum(binom.pmf(ks, m, p) * np.abs(ks - m * p) ** two_alpha)
    return table


def check_t_recursion(L: int, n: int, k: int, alpha, gamma: float,
                      tuple_budget: int = 2 * 10 ** 6) -> BoundCheck:
    """Verify the elimination-step inequality for every conditioning tuple.

    Enumerates all (n_1, .., n_{k-1}) with nonnegative entries summing to at
    most n, computes both sides exactly, and reports the smallest margin
    rhs - lhs together with any violations.
    """
    if not (2 < L and 1 <= k < L):
        raise InvalidParameterError("need L > 2 and 1 <= k < L")
    alpha = [float(a) for a in alpha]
    if len(alpha) != k or any(a < 0 for a in alpha):
        raise InvalidParameterError("alpha must have k nonnegative entries")
    if gamma < 0:
        raise InvalidParameterError("gamma must be nonnegative")

    n_tuples = math.comb(n + k - 1, k - 1)
    if n_tuples > tuple_budget:
        raise ResourceLimitError(f"{n_tuples} conditioning tuples exceed the budget")
    tuples = (np.zeros((1, 0), dtype=np.int64) if k == 1 else
              _partial_tuples(n, k - 1))

    ak = alpha[k - 1]
    p = 1.0 / (L - k + 1)
    m_free = n - tuples.sum(axis=1)              # remaining mass per tuple
    moment = _centered_binomial_moment_table(n, p, 2 * ak)

    # factors of T_{k-1} shared by both sides
    t_base = np.ones(len(tuples))
    rem = np.full(len(tuples), float(n))
    factors = []
    for ell in range(1, k):
        dev = np.abs(rem / (L - ell + 1) - tuples[:, ell - 1])
        factors.append(dev)
        t_base *= dev ** (2 * alpha[ell - 1])
        rem = rem - tuples[:, ell - 1]

    lhs = t_base * m_free.astype(float) ** gamma * moment[m_free]

    M = math.ceil(ak + gamma)
    const = _moment_constant(ak) * ((L - k) / (L - k + 1) ** 2) ** ak
    a_prev = float(n) - tuples[:, :max(k - 2, 0)].sum(axis=1)
    rhs = np.zeros(len(tuples))
    for beta in range(M + 1):
        if k >= 2:
            t_mod = t_base * factors[k - 2] ** beta
        else:
            t_mod = np.ones(len(tuples))
        rhs += (math.comb(M, beta)
                * ((L - k + 1) / (L - k + 2)) ** (M - beta)
                * a_prev ** (M - beta) * t_mod)
    rhs *= const

    margin = rhs - lhs
    worst = int(np.argmin(margin))
    violations = int(np.count_nonzero(lhs > rhs * (1 + 1e-12)))
    return BoundCheck(float(lhs[worst]), float(rhs[worst]), violations == 0,
                      {"L": L, "n": n, "k": k, "alpha": tuple(alpha), "gamma": gamma,
                       "worst_tuple": tuple(int(v) for v in tuples[worst]),
                       "violations": violations, "tuples": len(tuples)})


def _partial_tuples(n: int, width: int) -> np.ndarray:
    out = [t for t in itertools.product(range(n + 1), repeat=width) if sum(t) <= n]
    return np.array(out, dtype=np.int64).reshape(len(out), width)


def check_l3_moment_bound(n: int, d_max: int):
    """Exact E s^d for the order-3 count statistic vs 8 n^d d^2 d!.

    Returns one :class:`BoundCheck` per degree 1..d_max.  Degree 0 is
    excluded (the right side degenerates to 0 there).  Outside the moment
    regime d^3 <= n the rows are still computed but flagged.  With the LDLR
    terms at lam = 1, t_d = E s^d / (n^d d!), the check is t_d <= 8 d^2.
    """
    if d_max < 1:
        raise InvalidParameterError("d_max must be >= 1")
    terms = ldlr_exact_multinomial(3, n, 1.0, d_max).terms
    if d_max ** 3 > n:
        warnings.warn("degree range leaves the d^3 <= n regime; rows are flagged",
                      RuntimeWarning, stacklevel=2)
    rows = []
    for d in range(1, d_max + 1):
        log_fact = math.log(math.factorial(d))
        log_lhs = math.log(terms[d]) + d * math.log(n) + log_fact
        log_rhs = math.log(8.0) + d * math.log(n) + 2 * math.log(d) + log_fact
        rows.append(BoundCheck(math.exp(log_lhs), math.exp(log_rhs),
                               terms[d] <= 8 * d * d,
                               {"n": n, "d": d, "in_regime": d ** 3 <= n,
                                "log_lhs": log_lhs, "log_rhs": log_rhs}))
    return rows
