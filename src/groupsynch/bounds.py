"""Numerical verification of the moment inequalities behind the LDLR bounds.

Three checkable inequalities, each left side a scalar transform of one of
two moment primitives:

  * :func:`check_clt_moment_bound` — for centered i.i.d. sums with a
    moment generating function,
    E |sum X_i|^(2a)  <=  4 * 2^a * Gamma(2a + 1) * sigma^(2a) * n^a,
    read off the centered-binomial moments E |Binomial(m, p) - m p|^(2a)
    of :func:`_centered_binomial_moments`.  That primitive computes each
    binomial pmf row once for any number of exponents, with the pmf ufunc of
    ``scipy.special`` (loaded on first use; ``scipy.stats`` never is), so
    ``_clt_checks``, which the bound suite calls once per (distribution, n),
    checks every alpha of a grid from one row, with the same left sides bit
    for bit.  Its sums are exact and rounded once, as ``math.fsum``'s are:
    rows of at least ``_FSUM_BELOW`` entries add their mantissas in integer
    limbs, shorter rows, where ``fsum`` is faster, go to ``fsum``, and both
    give the same bits (:func:`_exact_row_sums`).

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

from ._rules import COUNT, NONNEGATIVE, PROBABILITY, SIZE, Rule, integer
from .errors import InvalidParameterError, NumericalOverflowError, ResourceLimitError
from .ldlr import _CHUNK_ENTRIES, _expand_over_mass, moment_table

__all__ = [
    "BoundCheck",
    "check_clt_moment_bound",
    "check_t_recursion",
    "check_l3_moment_bound",
]

# binomial pmf entries, or right-side terms, that one t-recursion check computes
_T_RECURSION_BUDGET = 21 * 10 ** 5


@dataclass(frozen=True)
class BoundCheck:
    lhs: float
    rhs: float
    holds: bool
    detail: dict


def _moment_constant(a: float) -> float:
    return 4.0 * 2.0 ** a * math.gamma(2 * a + 1)


# Rows shorter than this go to math.fsum, which is faster on them: the bound
# suite's t-recursion blocks (at most 31 x 31) and its CLT rows at n <= 100
_FSUM_BELOW = 128
# Rows longer than this go to fsum too: 2^21 limb pieces below 2^32 sum below 2^53
_LIMB_COLUMNS = 1 << 21
_LIMBS = 66     # 32-bit limbs from 2^-1074 to past 2^1024, with a shifted mantissa's 84 bits
_M32 = np.uint64(0xFFFFFFFF)


def _limb_sums(x: np.ndarray) -> np.ndarray:
    """The exact sum of each row of ``x`` (2-D, finite, >= 0, at most
    ``_LIMB_COLUMNS`` columns), correctly rounded as math.fsum's is, or
    OverflowError past the float range.

    Entry bits say value = mantissa * 2^(shift - 1074), shift in 0..2045.  The
    mantissa, shifted left by shift mod 32, spans three 32-bit limbs from limb
    shift // 32; one np.bincount per piece and block of columns (about
    ldlr._CHUNK_ENTRIES entries) adds them up per (row, limb), and each float sum
    stays below 2^53, so it is exact.  The limbs, even and odd ones each laid
    out without overlap, become one Python int per row, and its true division
    by 2^1074 rounds once."""
    rows = len(x)
    row_at = (np.arange(rows) * _LIMBS)[:, None]
    limbs = np.zeros(rows * _LIMBS)
    step = max(1, _CHUNK_ENTRIES // rows)
    for start in range(0, x.shape[1], step):
        bits = x[:, start:start + step].view(np.uint64)
        shift = np.maximum(bits >> 52, 1) - 1      # subnormals share the smallest normal's
        mant = bits - (shift << 52)                # implicit bit restored for normals
        at = ((shift >> 5).astype(np.intp) + row_at).ravel()
        r = shift & 31
        pieces = ((mant << r) & _M32, (mant >> (32 - r)) & _M32, (mant >> 32) >> (32 - r))
        for j, piece in enumerate(pieces):
            limbs += np.bincount(at + j, piece.ravel(), rows * _LIMBS)
    pairs = limbs.astype("<u8").reshape(rows, _LIMBS // 2, 2)
    even, odd = pairs[:, :, 0].tobytes(), pairs[:, :, 1].tobytes()
    width = 4 * _LIMBS
    return np.array([(int.from_bytes(even[i:i + width], "little")
                      + (int.from_bytes(odd[i:i + width], "little") << 32)) / (1 << 1074)
                     for i in range(0, len(even), width)])


def _exact_row_sums(x: np.ndarray) -> np.ndarray:
    """math.fsum of each row of the 2-D float array ``x``, bit for bit: rows of at
    least ``_FSUM_BELOW`` and at most ``_LIMB_COLUMNS`` entries, all finite and
    >= 0, by :func:`_limb_sums` in blocks of about ldlr._CHUNK_ENTRIES / 4
    entries; the rest (those holding a negative, inf or NaN among them) by fsum.
    A sum past the float range raises OverflowError either way."""
    if not _FSUM_BELOW <= x.shape[1] <= _LIMB_COLUMNS:
        return np.array([math.fsum(row) for row in x], dtype=float)
    x = np.ascontiguousarray(x, dtype=float)
    out = np.empty(len(x))
    limb = (x.view(np.uint64) < 0x7FF0000000000000).all(axis=1)    # >= 0 and finite
    for i in np.flatnonzero(~limb):
        out[i] = math.fsum(x[i])
    which = np.flatnonzero(limb)
    step = max(1, _CHUNK_ENTRIES // 4 // x.shape[1])
    for start in range(0, len(which), step):
        out[which[start:start + step]] = _limb_sums(x[which[start:start + step]])
    return out


def _centered_binomial_moments(m: np.ndarray, p: float, two_alpha) -> np.ndarray:
    """E |Binomial(m_i, p) - m_i p|^a for each m_i and each exponent a of
    ``two_alpha`` (a scalar or a list), exactly, of shape m.shape + shape of
    ``two_alpha``: one binomial pmf row block per chunk of about
    ldlr._CHUNK_ENTRIES terms over all exponents, shared by every exponent,
    and one :func:`_exact_row_sums` call per chunk over its rows for all
    exponents at once.  The pmf is ``scipy.special``'s ``_binom_pmf`` ufunc,
    the one ``scipy.stats.binom.pmf`` dispatches to, finished as ``binom.pmf``
    finishes it: 0 past m_i (where the ufunc gives NaN) and clipped to [0, 1]
    (at a tiny p the ufunc gives 1 + 3e-15 at k = 0).  So it has the same bits
    without loading ``scipy.stats``."""
    # on first use, like every SciPy subpackage the package calls; a private name
    # that pyproject's scipy pin covers
    from scipy.special._ufuncs import _binom_pmf
    exponents = np.ravel(two_alpha)
    rows = max(1, _CHUNK_ENTRIES // ((int(m.max()) + 1) * len(exponents)))
    out = []
    for start in range(0, len(m), rows):
        mc = m[start:start + rows, None]
        ks = np.arange(mc.max() + 1)
        pmf = np.clip(np.where(ks <= mc, _binom_pmf(ks, mc, p), 0.0), 0.0, 1.0)
        dev = np.abs(ks - mc * p)
        # one block per exponent, each power taken as the scalar power it always was
        terms = np.concatenate([pmf * dev ** a for a in exponents])
        out.append(_exact_row_sums(terms).reshape(len(exponents), -1).T)
    return np.concatenate(out).reshape(np.shape(m) + np.shape(two_alpha))


# exponents up to 10, and sums of up to 1e4 terms, one binomial pmf row each
_CLT_ALPHA = Rule(False, 0, 10)
_CLT_N = integer(1, 10 ** 4)


def _clt_checks(distribution, n: int, alphas) -> list:
    """:func:`check_clt_moment_bound` at each alpha of ``alphas``, from one binomial
    pmf row; every argument is checked before the row is computed."""
    for alpha in alphas:
        _CLT_ALPHA.check("alpha", alpha)
    _CLT_N.check("n", n)
    if distribution == "rademacher":
        p, sigma2, base = 0.5, 1.0, 4.0     # sum = 2 Binomial(n, 1/2) - n
    elif isinstance(distribution, (tuple, list)) and len(distribution) == 2 \
            and distribution[0] == "bernoulli":
        p = PROBABILITY.check("p", distribution[1])
        sigma2, base = p * (1 - p), 1.0
    else:
        raise InvalidParameterError(f"unknown distribution {distribution!r}")
    moments = _centered_binomial_moments(np.array([n]), p, [2 * alpha for alpha in alphas])[0]
    checks = []
    for alpha, moment in zip(alphas, moments):
        lhs = base ** alpha * float(moment)
        rhs = _moment_constant(alpha) * sigma2 ** alpha * float(n) ** alpha
        checks.append(BoundCheck(lhs, rhs, lhs <= rhs,
                                 {"distribution": str(distribution), "n": n, "alpha": alpha}))
    return checks


def check_clt_moment_bound(distribution, n: int, alpha: float) -> BoundCheck:
    """Exact 2*alpha absolute moment of a centered i.i.d. sum vs its bound.

    ``distribution`` is "rademacher" or ("bernoulli", p); the sum's law is a
    shifted binomial either way, so the left side is an exact finite sum.
    """
    return _clt_checks(distribution, n, (alpha,))[0]


_T_RECURSION_L = integer(3)


def check_t_recursion(L: int, n: int, k: int, alpha, gamma: float) -> BoundCheck:
    """Verify the elimination-step inequality for every conditioning tuple.

    Enumerates all (n_1, .., n_{k-1}) with nonnegative entries summing to at
    most n, computes both sides exactly, and reports the smallest margin
    rhs - lhs together with any violations.
    """
    return _t_recursion_checks(L, n, k, [alpha], [gamma])[0]


def _t_recursion_checks(L: int, n: int, k: int, alphas, gammas) -> list:
    """:func:`check_t_recursion` at each (alpha, gamma) of ``alphas`` x ``gammas``,
    alpha-major, from one tuple table and one centered-binomial moments call for
    every alpha's exponent; every argument, and the budget at the grid's largest
    M, are checked before either is built."""
    _T_RECURSION_L.check("L", L)
    COUNT.check("n", n)
    if SIZE.check("k", k) >= L:
        raise InvalidParameterError("need k < L")
    alphas = [[float(NONNEGATIVE.check("alpha", a)) for a in alpha] for alpha in alphas]
    if any(len(alpha) != k for alpha in alphas):
        raise InvalidParameterError("alpha must have k entries")
    for gamma in gammas:
        NONNEGATIVE.check("gamma", gamma)
    # the cap keeps a huge sum finite
    grid = [(alpha, gamma, math.ceil(min(alpha[k - 1] + gamma, _T_RECURSION_BUDGET)))
            for alpha in alphas for gamma in gammas]
    if not grid:
        return []

    # the left side builds one binomial pmf row of m + 1 entries per distinct remaining
    # mass m, m = n alone at k = 1 and every m in 0..n at k >= 2; the right side sums
    # M + 1 terms over every conditioning tuple
    pmf = n + 1 if k == 1 else (n + 1) * (n + 2) // 2
    work = max(pmf, (max(M for _, _, M in grid) + 1) * math.comb(n + k - 1, k - 1))
    if work > _T_RECURSION_BUDGET:
        raise ResourceLimitError(f"{work} binomial pmf entries or right-side terms exceed "
                                 f"the budget of {_T_RECURSION_BUDGET}")
    tuples = _partial_tuples(n, k - 1)
    m_free = n - tuples.sum(axis=1)              # remaining mass per tuple
    m_vals, which = np.unique(m_free, return_inverse=True)
    column = {a: j for j, a in enumerate(sorted({2 * alpha[k - 1] for alpha in alphas}))}
    checks = []
    # an overflow to inf (or an inf times 0) is refused below, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            moments = _centered_binomial_moments(m_vals, 1.0 / (L - k + 1), list(column))
            for alpha, gamma, M in grid:
                moment = moments[which, column[2 * alpha[k - 1]]]
                lhs, rhs = _t_recursion_sides(L, n, k, alpha, gamma, M, tuples, m_free, moment)
                if not (np.isfinite(lhs).all() and np.isfinite(rhs).all()):
                    break
                checks.append(_t_recursion_check(L, n, k, alpha, gamma, tuples, lhs, rhs))
        except OverflowError:   # K(alpha_k) or a binomial coefficient as a float
            pass
    if len(checks) < len(grid):
        raise NumericalOverflowError("a side of the t-recursion exceeds the float range")
    return checks


def _t_recursion_check(L, n, k, alpha, gamma, tuples, lhs, rhs) -> BoundCheck:
    margin = rhs - lhs
    worst = int(np.argmin(margin))
    violations = int(np.count_nonzero(lhs > rhs * (1 + 1e-12)))
    return BoundCheck(float(lhs[worst]), float(rhs[worst]), violations == 0,
                      {"L": L, "n": n, "k": k, "alpha": tuple(alpha), "gamma": gamma,
                       "worst_tuple": tuple(int(v) for v in tuples[worst]),
                       "violations": violations, "tuples": len(tuples)})


def _t_recursion_sides(L, n, k, alpha, gamma, M, tuples, m_free, moment):
    """Both sides of the elimination step at every conditioning tuple, given the
    remaining mass and the centered-binomial moment of each."""
    ak = alpha[k - 1]
    const = _moment_constant(ak) * ((L - k) / (L - k + 1) ** 2) ** ak

    # T_{k-1} shared by both sides, and its last factor (1 when k = 1)
    t_base = np.ones(len(tuples))
    rem = np.full(len(tuples), float(n))
    dev = 1.0
    for ell in range(1, k):
        dev = np.abs(rem / (L - ell + 1) - tuples[:, ell - 1])
        t_base *= dev ** (2 * alpha[ell - 1])
        rem = rem - tuples[:, ell - 1]

    lhs = t_base * m_free.astype(float) ** gamma * moment
    a_prev = float(n) - tuples[:, :max(k - 2, 0)].sum(axis=1)
    rhs = np.zeros(len(tuples))
    for beta in range(M + 1):
        rhs += (math.comb(M, beta)
                * ((L - k + 1) / (L - k + 2)) ** (M - beta)
                * a_prev ** (M - beta) * (t_base * dev ** beta))
    return lhs, rhs * const


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
    SIZE.check("n", n)
    SIZE.check("d_max", d_max)
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
