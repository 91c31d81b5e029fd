"""Numerical verification of the moment inequalities behind the LDLR bounds.

Three checkable inequalities, each left side a scalar transform of one of
two moment primitives:

  * :func:`check_clt_moment_bound` — for centered i.i.d. sums with a
    moment generating function,
    E |sum X_i|^(2a)  <=  4 * 2^a * Gamma(2a + 1) * sigma^(2a) * n^a,
    read off the centered-binomial moments E |Binomial(m, p) - m p|^(2a)
    of :func:`_centered_binomial_moments`.

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
    the constant delivered by the moment bound above.  The left side reads
    the same centered-binomial moments, for every reachable conditioning tuple.

  * :func:`check_l3_moment_bound` — for the order-3 count statistic,
    E s^d <= 8 * n^d * d^2 * d!, read off the multinomial moments E[s^d]
    of :func:`groupsynch.ldlr.moment_table`.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.stats import binom

from .errors import InvalidParameterError, NumericalOverflowError, ResourceLimitError
from .ldlr import _expand_over_mass, moment_table

__all__ = [
    "BoundCheck",
    "check_clt_moment_bound",
    "check_t_recursion",
    "check_l3_moment_bound",
]

_CHUNK_ENTRIES = 1 << 16     # pmf grid entries per binom.pmf call


@dataclass(frozen=True)
class BoundCheck:
    lhs: float
    rhs: float
    holds: bool
    detail: dict


def _moment_constant(a: float) -> float:
    return 4.0 * 2.0 ** a * math.gamma(2 * a + 1)


def _centered_binomial_moments(m: np.ndarray, p: float, two_alpha: float) -> np.ndarray:
    """E |Binomial(m_i, p) - m_i p|^two_alpha for each m_i, exactly: one binom.pmf
    call per chunk of _CHUNK_ENTRIES entries, one fsum per row (pmf 0 past m_i)."""
    rows = max(1, _CHUNK_ENTRIES // (int(m.max()) + 1))
    out = []
    for start in range(0, len(m), rows):
        mc = m[start:start + rows, None]
        ks = np.arange(mc.max() + 1)
        grid = binom.pmf(ks, mc, p) * np.abs(ks - mc * p) ** two_alpha
        out += [math.fsum(row) for row in grid]
    return np.array(out)


def check_clt_moment_bound(distribution, n: int, alpha: float) -> BoundCheck:
    """Exact 2*alpha absolute moment of a centered i.i.d. sum vs its bound.

    ``distribution`` is "rademacher" or ("bernoulli", p); the sum's law is a
    shifted binomial either way, so the left side is an exact finite sum.
    """
    if not 0 <= alpha <= 10:     # NaN fails too
        raise InvalidParameterError("alpha must lie in [0, 10]")
    if n < 1 or n > 10 ** 4:
        raise InvalidParameterError("n must lie in [1, 1e4]")
    if distribution == "rademacher":
        p, sigma2, scale = 0.5, 1.0, 4.0 ** alpha    # sum = 2 Binomial(n, 1/2) - n
    else:
        kind, p = distribution
        if kind != "bernoulli" or not 0 < p < 1:
            raise InvalidParameterError(f"unknown distribution {distribution!r}")
        sigma2, scale = p * (1 - p), 1.0
    lhs = scale * float(_centered_binomial_moments(np.array([n]), p, 2 * alpha)[0])
    rhs = _moment_constant(alpha) * sigma2 ** alpha * float(n) ** alpha
    return BoundCheck(lhs, rhs, lhs <= rhs,
                      {"distribution": str(distribution), "n": n, "alpha": alpha})


def check_t_recursion(L: int, n: int, k: int, alpha, gamma: float,
                      tuple_budget: int = 2 * 10 ** 6) -> BoundCheck:
    """Verify the elimination-step inequality for every conditioning tuple.

    Enumerates all (n_1, .., n_{k-1}) with nonnegative entries summing to at
    most n, computes both sides exactly, and reports the smallest margin
    rhs - lhs together with any violations.
    """
    if n < 0:
        raise InvalidParameterError("n must be nonnegative")
    if not (2 < L and 1 <= k < L):
        raise InvalidParameterError("need L > 2 and 1 <= k < L")
    alpha = [float(a) for a in alpha]
    if len(alpha) != k or any(not 0 <= a < math.inf for a in alpha):
        raise InvalidParameterError("alpha must have k finite nonnegative entries")
    if not 0 <= gamma < math.inf:
        raise InvalidParameterError("gamma must be finite and nonnegative")

    n_tuples = math.comb(n + k - 1, k - 1)
    if n_tuples > tuple_budget:
        raise ResourceLimitError(f"{n_tuples} conditioning tuples exceed the budget")
    tuples = _partial_tuples(n, k - 1)

    ak = alpha[k - 1]
    m_free = n - tuples.sum(axis=1)              # remaining mass per tuple
    m_vals, which = np.unique(m_free, return_inverse=True)
    moment = _centered_binomial_moments(m_vals, 1.0 / (L - k + 1), 2 * ak)[which]

    # T_{k-1} shared by both sides, and its last factor (1 when k = 1)
    t_base = np.ones(len(tuples))
    rem = np.full(len(tuples), float(n))
    dev = 1.0
    for ell in range(1, k):
        dev = np.abs(rem / (L - ell + 1) - tuples[:, ell - 1])
        t_base *= dev ** (2 * alpha[ell - 1])
        rem = rem - tuples[:, ell - 1]

    lhs = t_base * m_free.astype(float) ** gamma * moment

    M = math.ceil(ak + gamma)
    const = _moment_constant(ak) * ((L - k) / (L - k + 1) ** 2) ** ak
    a_prev = float(n) - tuples[:, :max(k - 2, 0)].sum(axis=1)
    rhs = np.zeros(len(tuples))
    for beta in range(M + 1):
        rhs += (math.comb(M, beta)
                * ((L - k + 1) / (L - k + 2)) ** (M - beta)
                * a_prev ** (M - beta) * (t_base * dev ** beta))
    rhs *= const

    margin = rhs - lhs
    worst = int(np.argmin(margin))
    violations = int(np.count_nonzero(lhs > rhs * (1 + 1e-12)))
    return BoundCheck(float(lhs[worst]), float(rhs[worst]), violations == 0,
                      {"L": L, "n": n, "k": k, "alpha": tuple(alpha), "gamma": gamma,
                       "worst_tuple": tuple(int(v) for v in tuples[worst]),
                       "violations": violations, "tuples": len(tuples)})


def _partial_tuples(n: int, width: int) -> np.ndarray:
    """Tuples >= 0 summing to <= n, lexicographic: rows repeat over c = 0..n - sum."""
    tuples = np.zeros((1, 0), dtype=np.int64)
    for _ in range(width):
        src, c = _expand_over_mass(n - tuples.sum(axis=1))
        tuples = np.column_stack([tuples[src], c])
    return tuples


def check_l3_moment_bound(n: int, d_max: int):
    """Exact E s^d for the order-3 count statistic vs 8 n^d d^2 d!.

    Returns one :class:`BoundCheck` per degree 1..d_max.  Degree 0 is
    excluded (the right side degenerates to 0 there).  Outside the moment
    regime d^3 <= n the rows are still computed but flagged.  Either side
    leaving the float range raises :class:`NumericalOverflowError`.
    """
    if d_max < 1:
        raise InvalidParameterError("d_max must be >= 1")
    # the right side first: where the bound holds, a left side past the
    # float range means this one is past it too, so that raises before any
    # moment is computed
    try:
        rhs = [float(8 * n ** d * d * d * math.factorial(d)) for d in range(d_max + 1)]
    except OverflowError as exc:
        raise NumericalOverflowError("8 n^d d^2 d! exceeds the float range") from exc
    moments = moment_table(3, n, d_max)
    if d_max ** 3 > n:
        warnings.warn("degree range leaves the d^3 <= n regime; rows are flagged",
                      RuntimeWarning, stacklevel=2)
    return [BoundCheck(moments[d], rhs[d], moments[d] <= rhs[d],
                       {"n": n, "d": d, "in_regime": d ** 3 <= n})
            for d in range(1, d_max + 1)]
