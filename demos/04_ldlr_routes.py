"""Four routes to the degree-D likelihood-ratio second moment, cross-checked.

The exact multinomial route sums over the law of the squared occupancy
counts, built cell by cell; the brute-force route enumerates every signal
assignment; the tuple-count route counts
vanishing index families; the Monte-Carlo route averages the overlap
series.  Where two routes compute the same model they agree to rational
exactness or within Monte-Carlo error.
"""
from groupsynch import Model
from groupsynch.ldlr import (ldlr_bruteforce_signals, ldlr_exact_multinomial,
                             ldlr_from_md, ldlr_montecarlo_overlap, md_count,
                             polylog_neg)

L, n, lam, D = 3, 6, 0.9, 4

exact = ldlr_exact_multinomial(L, n, lam, D, exact=True)
brute = ldlr_bruteforce_signals(L, n, lam, D, exact=True)
print("exact multinomial terms:", [str(t) for t in exact.terms])
print("agrees with brute force over 3^6 assignments:",
      exact.terms == brute.terms)

mc = ldlr_montecarlo_overlap(Model("cyclic", L=L, snr=lam), n, D, 10 ** 5, seed=1)
print(f"monte-carlo cumulative {mc.cumulative:.4f} +/- {mc.stderr[-1]:.4f} "
      f"(exact {float(exact.cumulative):.4f})")

# tuple counting covers the redundant all-frequency channel list; it matches
# the multinomial route for the corresponding statistic, term by term
md = ldlr_from_md("cyclic", L, n, lam, 3, exact=True)
allf = ldlr_exact_multinomial(L, n, lam, 3, exact=True,
                              statistic="all_frequencies")
print("tuple counts match the all-frequency multinomial route:",
      md.terms == allf.terms)

# the circle-prior tuple family is contained in the cyclic one
for d in range(4):
    c, z = md_count("circle", L, n, d), md_count("cyclic", L, n, d)
    print(f"  degree {d}: circle {c:>6d} <= cyclic {z:>6d}")

# below the spectral threshold the series stays bounded as n grows
bound = polylog_neg(6, 0.81)
print(f"polylog bound at snr 0.9, three channels: {bound:.3e}")
for n in (50, 100, 200, 400):
    D_rule = int(n ** 0.3)
    rep = ldlr_exact_multinomial(3, n, 0.9, D_rule)
    print(f"  n={n:<4d} D={D_rule}: cumulative {float(rep.cumulative):.4f}")
