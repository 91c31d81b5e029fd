"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or ``-rA``)
and asserts the same condition, so the suite doubles as a human-readable
verification report.  The whole module takes about 2.6 minutes on two cores,
2.3 of them in the BBP detection check (test 06), which samples and
decomposes 350 order-2000 observations; the appendix bound suites (test 05)
take about 2 s.
"""
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from groupsynch.bounds import (check_clt_moment_bound, check_l3_moment_bound,
                               check_t_recursion)
from groupsynch.detect import DetectorConfig, calibrate_threshold, detect
from groupsynch.ensembles import EnsembleKind, sample, spectral_edge_check
from groupsynch.experiments import (ExperimentConfig, run,
                                    stat_threshold_lower_bound,
                                    stat_threshold_upper_bound)
from groupsynch.groups import build_catalog
from groupsynch.ldlr import (first_moment_via_binomial, ldlr_bruteforce_signals,
                             ldlr_exact_multinomial, ldlr_from_md, md_count,
                             polylog_neg)
from groupsynch.models import (Model, indicator_to_canonical, sample_indicator,
                               sample_signal)
from groupsynch.rng import spawn_seeds


def report(criterion: str, ok: bool, detail: str = "") -> None:
    print(f"ACCEPT {'PASS' if ok else 'FAIL'}  {criterion:38s} {detail}")


def test_01_exact_ldlr_oracle_equivalence():
    t0 = time.time()
    instances = [(L, n) for L in (2, 3, 4) for n in range(1, 11)
                 if L ** n <= 10 ** 5]
    worst = Fraction(0)
    for L, n in instances:
        a = ldlr_exact_multinomial(L, n, 0.9, 4, exact=True)
        b = ldlr_bruteforce_signals(L, n, 0.9, 4, exact=True)
        diff = max(abs(x - y) for x, y in zip(a.terms, b.terms))
        worst = max(worst, diff)
    elapsed = time.time() - t0
    ok = worst <= Fraction(1, 10 ** 12) and elapsed < 120
    report("1 exact-vs-bruteforce (rational)", ok,
           f"{len(instances)} instances, worst diff {float(worst)}, {elapsed:.1f}s")
    assert worst <= Fraction(1, 10 ** 12)
    assert elapsed < 120


def test_02_tuple_counting_dual_identity():
    t0 = time.time()
    worst = 0.0
    containment = True
    checked = 0
    for L in (2, 3, 4):
        for n in range(1, 6):
            md = ldlr_from_md("cyclic", L, n, 0.8, 3, exact=True)
            mn = ldlr_exact_multinomial(L, n, 0.8, 3, exact=True,
                                        statistic="all_frequencies")
            worst = max(worst, float(max(abs(x - y)
                                         for x, y in zip(md.terms, mn.terms))))
            for d in range(4):
                if md_count("circle", L, n, d) > md_count("cyclic", L, n, d):
                    containment = False
            checked += 1
    elapsed = time.time() - t0
    ok = worst <= 1e-9 and containment and elapsed < 300
    report("2 md-count vs multinomial + containment", ok,
           f"{checked} instances, worst diff {worst}, {elapsed:.1f}s")
    assert worst <= 1e-9
    assert containment
    assert elapsed < 300


def test_03_first_moment_closed_form():
    worst_float = 0.0
    exact_ok = True
    for L in range(2, 9):
        for n in (10, 100, 1000):
            want = Fraction(n * (L - 1), 2)
            if first_moment_via_binomial(L, n, exact=True) != want:
                exact_ok = False
            approx = first_moment_via_binomial(L, n, exact=False)
            worst_float = max(worst_float, abs(approx - float(want)))
    ok = exact_ok and worst_float <= 1e-9
    report("3 first moment n(L-1)/2", ok,
           f"rational exact={exact_ok}, worst float err {worst_float:.2e}")
    assert exact_ok
    assert worst_float <= 1e-9


def test_04_boundedness_below_threshold():
    t0 = time.time()
    bound = polylog_neg(6, 0.81)
    all_bounded = True
    all_plateau = True
    details = []
    for n in (50, 100, 200, 400):
        D = int(n ** 0.3)
        rep = ldlr_exact_multinomial(3, n, 0.9, D)
        cum_at_rule = float(rep.cumulative)
        bounded = cum_at_rule <= bound
        # extend the degree horizon until the term sequence visibly
        # plateaus: last term below 1e-3 of the running cumulative
        plateau_D = None
        ext = ldlr_exact_multinomial(3, n, 0.9, 60)
        running = 0.0
        for d, t in enumerate(ext.terms):
            running += float(t)
            if d > 0 and float(t) < 1e-3 * running:
                plateau_D = d
                break
        plateau = plateau_D is not None and running <= bound
        literal_ratio = float(rep.terms[D]) / cum_at_rule
        all_bounded &= bounded
        all_plateau &= plateau
        details.append(f"n={n}: cum(D={D})={cum_at_rule:.3f}"
                       f" plateau@d={plateau_D} rule-D ratio={literal_ratio:.3f}")
    elapsed = time.time() - t0
    ok = all_bounded and all_plateau and elapsed < 600
    report("4 bounded by polylog + plateau", ok,
           f"bound {bound:.3e}; " + "; ".join(details) + f"; {elapsed:.1f}s")
    assert all_bounded
    assert all_plateau
    assert elapsed < 600


def test_05_appendix_bound_suites():
    t0 = time.time()
    violations = []
    clt_points = 0
    distros = ["rademacher"] + [("bernoulli", p)
                                for p in (0.1, 0.25, 1 / 3, 0.5, 2 / 3, 0.9)]
    for dist in distros:
        for n in (30, 100, 300, 1000, 3000, 10000):
            for alpha in (0.5, 1, 1.5, 2, 3, 4, 5, 6, 8, 10):
                res = check_clt_moment_bound(dist, n, alpha)
                clt_points += 1
                if not res.holds:
                    violations.append(f"clt {dist} n={n} a={alpha}: "
                                      f"{res.lhs} > {res.rhs}")

    def alpha_vectors(k, total):
        if k == 0:
            yield ()
            return
        for head in range(total + 1):
            for tail in alpha_vectors(k - 1, total - head):
                yield (head,) + tail

    trec_points = 0
    for L in (3, 4, 5):
        for n in (10, 20, 30):
            for k in range(1, L):
                for alpha in alpha_vectors(k, 4):
                    for gamma in (0, 1, 2):
                        res = check_t_recursion(L, n, k, list(alpha), gamma)
                        trec_points += 1
                        if not res.holds:
                            violations.append(
                                f"t-rec L={L} n={n} k={k} a={alpha} g={gamma}: "
                                f"witness {res.detail['worst_tuple']} "
                                f"lhs={res.lhs} rhs={res.rhs}")

    l3_rows = check_l3_moment_bound(1000, 9)
    for row in l3_rows:
        if not row.holds:
            violations.append(f"l3 d={row.detail['d']}: {row.lhs} > {row.rhs}")

    elapsed = time.time() - t0
    ok = not violations
    report("5 appendix bound suites", ok,
           f"clt {clt_points} pts, t-recursion {trec_points} pts, l3 9 rows, "
           f"{len(violations)} violations, {elapsed:.1f}s")
    for v in violations:
        print("   VIOLATION:", v)
    assert clt_points >= 200
    assert not violations


@pytest.mark.slow
def test_06_bbp_detection():
    t0 = time.time()
    n, trials, alpha = 2000, 100, 0.05
    model = Model("circle", L=1, snr=0.0)
    config = DetectorConfig(alpha=alpha, calibration_trials=50, eigen_tol=1e-4)
    threshold = calibrate_threshold(model, n, config, seed=606)

    powers = {}
    mean_top = None
    for gi, lam in enumerate((0.5, 1.3, 1.5)):
        planted = model.with_snr(lam)
        tops = []
        hits = 0
        for s in spawn_seeds(606, trials, stream=10 + gi):
            verdict = detect(planted.sample(n, s), threshold, tol=config.eigen_tol)
            tops.append(verdict.per_frequency[0])
            hits += verdict.label == "p"
        powers[lam] = hits / trials
        if lam == 1.5:
            mean_top = float(np.mean(tops))
    elapsed = time.time() - t0
    ok = (powers[1.3] >= 0.95 and powers[0.5] <= alpha + 0.05
          and abs(mean_top - (1.5 + 1 / 1.5)) <= 0.1 and elapsed < 900)
    report("6 spectral detection at n=2000", ok,
           f"threshold {threshold:.4f}, power(0.5)={powers[0.5]:.2f}, "
           f"power(1.3)={powers[1.3]:.2f}, mean top(1.5)={mean_top:.4f}, "
           f"{elapsed:.0f}s")
    assert powers[1.3] >= 0.95
    assert powers[0.5] <= alpha + 0.05
    assert abs(mean_top - (1.5 + 1 / 1.5)) <= 0.1
    assert elapsed < 900


def test_07_noisy_indicator_equivalence():
    worst_signal = 0.0
    for name in ("cyclic(3)", "cyclic(4)", "dihedral(3)"):
        group, full = build_catalog(name)
        L = group.order
        for n in (5, 20):
            snr = 0.8
            gamma = snr * math.sqrt(L / n)
            signal = sample_signal(("haar", group), n, seed=77)
            scores = np.zeros((n, n, L), dtype=complex)
            for k in range(n):
                for j in range(n):
                    rel = group.mul[signal.values[k],
                                    group.inverse[signal.values[j]]]
                    scores[k, j, rel] = gamma
            from groupsynch.models import IndicatorObservation
            clean = IndicatorObservation(scores, gamma, signal.values, n, 77)
            canon = indicator_to_canonical(clean, group, full)
            nontrivial = [r for r in full if not r.is_trivial]
            for freq, irrep in zip(canon.freqs, nontrivial):
                d = irrep.dim
                for a in range(n):
                    for b in range(n):
                        blk = freq.matrix[a * d:(a + 1) * d, b * d:(b + 1) * d]
                        want = (snr / n) * irrep.matrices[signal.values[a]] @ \
                            irrep.matrices[group.inverse[signal.values[b]]]
                        worst_signal = max(worst_signal,
                                           float(np.abs(blk - want).max()))

    # null variance over >= 200 pairs per channel (4000 pairs for stability)
    worst_var = 0.0
    vn = 50
    for name in ("cyclic(3)", "cyclic(4)", "dihedral(3)"):
        group, full = build_catalog(name)
        chunks = None
        for s in range(4):
            obs = sample_indicator(group, vn, 0.0, seed=900 + s)
            canon = indicator_to_canonical(obs, group, full)
            if chunks is None:
                chunks = [[] for _ in canon.freqs]
            iu = np.triu_indices(vn, 1)
            for ci, freq in enumerate(canon.freqs):
                d = freq.matrix.shape[0] // vn
                blocks = freq.matrix.reshape(vn, d, vn, d).transpose(0, 2, 1, 3)
                chunks[ci].append(np.abs(blocks[iu]) ** 2)
        for ci, freq in enumerate(canon.freqs):
            d = freq.matrix.shape[0] // vn
            mean_sq = float(np.mean(np.concatenate(chunks[ci])))
            target = 1.0 / (vn * d)
            worst_var = max(worst_var, abs(mean_sq - target) / target)

    ok = worst_signal <= 1e-10 and worst_var <= 0.05
    report("7 noisy-indicator equivalence", ok,
           f"worst signal err {worst_signal:.2e}, worst variance rel err "
           f"{worst_var:.3f} over 4900 pairs/channel")
    assert worst_signal <= 1e-10
    assert worst_var <= 0.05


@pytest.mark.slow
def test_08_ensemble_validation():
    t0 = time.time()
    herm_exact = True
    for tag, m in (("GOE", 64), ("GUE", 64), ("GSE", 32)):
        w = sample(EnsembleKind(tag, m), seed=8).entries
        herm_exact &= bool(np.array_equal(w, w.conj().T))
    ev = np.linalg.eigvalsh(sample(EnsembleKind("GSE", 60), seed=9).entries)
    kramers = float(np.abs(ev[0::2] - ev[1::2]).max())
    goe_mean, goe_se = spectral_edge_check(EnsembleKind("GOE", 1000), 50, seed=10)
    gue_mean, gue_se = spectral_edge_check(EnsembleKind("GUE", 1000), 50, seed=11)
    elapsed = time.time() - t0
    ok = (herm_exact and kramers < 1e-8 and abs(goe_mean - 2.0) <= 0.06
          and abs(gue_mean - 2.0) <= 0.06)
    report("8 ensemble validation", ok,
           f"hermitian exact={herm_exact}, kramers {kramers:.1e}, "
           f"edges {goe_mean:.3f}/{gue_mean:.3f}, {elapsed:.0f}s")
    assert herm_exact
    assert kramers < 1e-8
    assert abs(goe_mean - 2.0) <= 0.06
    assert abs(gue_mean - 2.0) <= 0.06


def test_09_phase_diagram_markers(tmp_path):
    result = run(ExperimentConfig.from_dict({
        "kind": "phase-diagram", "seed": 1,
        "params": {"L_grid": list(range(3, 17)), "snr_grid": [0.9], "n": 12,
                   "trials": 0},
        "out": {"csv": str(tmp_path / "phase.csv")},
    }))
    uppers = {r["L"]: r["stat_upper"] for r in result.rows}
    first_below = min(L for L, u in uppers.items() if u < 1.0)
    lower3 = stat_threshold_lower_bound(3)
    target = math.sqrt(2 * 2 * math.log(2) / 3)
    ok = first_below == 11 and abs(lower3 - target) <= 1e-4
    report("9 phase-diagram markers", ok,
           f"first L with upper<1: {first_below}; lower(3)={lower3:.6f} "
           f"(formula {target:.6f})")
    assert first_below == 11
    assert abs(lower3 - target) <= 1e-4
    assert stat_threshold_upper_bound(10) > 1.0


def test_10_reproducibility(tmp_path):
    digests = []
    for tag in ("first", "second"):
        csv_path = tmp_path / f"{tag}.csv"
        cfg = ExperimentConfig.from_dict({
            "kind": "oracle-suite", "seed": 2024,
            "out": {"csv": str(csv_path)},
        })
        result = run(cfg)
        assert result.failures == []
        digests.append(csv_path.read_bytes())
    ok = digests[0] == digests[1]
    report("10 byte-identical reruns", ok, f"{len(digests[0])} bytes")
    assert ok
