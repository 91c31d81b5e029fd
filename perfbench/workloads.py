"""The benchmark's three workloads, each a fixed operation mix with checks.

Every workload has ``setup(seed, workdir)``, which builds the catalogs and
models it uses, ``warm_up(ctx)``, one small call on the workload's main path,
and ``run_pass(ctx, loop, pass_no)``, one pass over the operation mix.
Operations go through :meth:`Loop.call`, a closed loop: a single caller
issues the next operation only when the previous one has returned.  Each
operation is named so that the name identifies it within the mix: the same
name recurs only for a repeat of the same call on the same shape.  Random
inputs (trial, sampling and calibration seeds) are derived from the run seed
and the pass number, so a run of several passes sees several input draws and
the same seed always gives the same inputs.

The checks are ones a correct optimisation cannot break: exact rational
values, agreement of independent routes within fixed tolerances, statistical
gates with wide margins, and the program's own suite checks.  None depends
on bit-identical floating point or on a particular RNG stream.  Statistical
gates whose false-alarm rate is not negligible at the planted margin (the
Monte-Carlo versus exact comparisons at 3 standard errors, and the suites'
own variance and Monte-Carlo checks) run on fixed seeds, as the repository's
tests run them, so a correct program passes them on every run.
"""
from __future__ import annotations

import math
import time
from fractions import Fraction
from functools import partial
from pathlib import Path

import numpy as np

import groupsynch as gs
from groupsynch import experiments, ldlr, models

# ---------------------------------------------------------------------------
# Closed-loop operation runner
# ---------------------------------------------------------------------------


class Loop:
    """Runs operations one at a time and records latency and failures.

    An operation fails when it raises or when its check returns a message.
    """

    def __init__(self):
        self.names = []              # one per operation
        self.latencies = []          # seconds, one per operation
        self.failed = set()          # indices of failed operations
        self.messages = []

    def call(self, name, fn, *args, check=None, **kwargs):
        idx = len(self.latencies)
        self.names.append(name)
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # counted as a failed operation; the pass goes on
            self.latencies.append(time.perf_counter() - t0)
            self.fail([idx], f"{name}: {type(exc).__name__}: {exc}")
            return None
        self.latencies.append(time.perf_counter() - t0)
        if check is not None:
            problem = check(result)
            if problem:
                self.fail([idx], f"{name}: {problem}")
        return result

    def fail(self, indices, message):
        self.failed.update(indices)
        self.messages.append(message)

    def last(self) -> int:
        return len(self.latencies) - 1


def _seeds(seed: int, pass_no: int, stream: int, count: int) -> list:
    """Child seeds for the benchmark's own inputs, from the run seed and pass."""
    ss = np.random.SeedSequence([int(seed), int(pass_no), int(stream)])
    return [int(s) for s in ss.generate_state(count, dtype=np.uint32)]


def _interleave(heavy, light):
    """Run each heavy step, then every len(heavy)-th light step from its own offset.

    Each stretch of the pass thus holds light steps from across their whole
    range, so a percentile that falls among them samples the machine's speed
    all through the pass rather than during one stretch of it.
    """
    for i, step in enumerate(heavy):
        step()
        for unit in light[i::len(heavy)]:
            unit()


def _suite(kind, seed, workdir, params=None):
    cfg = {"kind": kind, "seed": seed, "out": {"csv": str(Path(workdir) / f"{kind}.csv")}}
    if params:
        cfg["params"] = params
    return experiments.run(experiments.ExperimentConfig.from_dict(cfg))


def _suite_check(result):
    return f"suite failures: {result.failures[:3]}" if result.failures else None


def _hermitian_check(obs):
    bad = [f.label for f in obs.freqs if not np.array_equal(f.matrix, f.matrix.conj().T)]
    return f"channels not exactly Hermitian: {bad}" if bad else None


def _finite_check(value):
    return None if math.isfinite(value) else f"non-finite value {value}"


# ---------------------------------------------------------------------------
# spectral-detection
# ---------------------------------------------------------------------------

class SpectralDetection:
    """Null calibration and planted trials at two shapes.

    cyclic(L=4), n=400, tol 1e-8: one GUE and one GOE channel, both on the
    Lanczos path; circle(L=1), n=2000, tol 1e-4: the shape of acceptance
    test 06, where sampling is a large share.  An operation is one
    sample-and-detect trial.
    """

    # (name, model kind, L, n, eigen tol, null trials, planted trials).  The
    # counts put the median and the p90 of a run's latencies in the middle of
    # one trial kind (cyclic null, circle null), not on the edge between two
    # kinds, where the percentile would jump from one kind to the other.
    SHAPES = (
        ("cyclic4", "cyclic", 4, 400, 1e-8, 4, 5),
        ("circle1", "circle", 1, 2000, 1e-4, 3, 2),
    )
    SNR = 1.5
    ALPHA = 0.05

    @staticmethod
    def setup(seed, workdir):
        shapes = [{"name": name, "model": gs.Model(kind, L=L), "n": n, "tol": tol,
                   "trials": (n_null, n_planted)}
                  for name, kind, L, n, tol, n_null, n_planted in SpectralDetection.SHAPES]
        return {"shapes": shapes, "seed": seed}

    @staticmethod
    def warm_up(ctx):
        obs = gs.Model("circle", L=1, snr=SpectralDetection.SNR).sample(300, seed=ctx["seed"])
        gs.detect(obs, 2.0, tol=1e-4)

    @staticmethod
    def run_pass(ctx, loop, pass_no):
        for i, shape in enumerate(ctx["shapes"]):
            null, planted = shape["model"].null(), shape["model"].with_snr(SpectralDetection.SNR)
            n, tol = shape["n"], shape["tol"]

            def trial(model, s, threshold):
                return gs.detect(model.sample(n, s), threshold, tol=tol)

            def valid(verdict):
                ok = verdict.label in ("p", "q") and all(map(math.isfinite, verdict.per_frequency))
                return None if ok else f"bad verdict {verdict}"

            stats = []
            n_null, n_planted = shape["trials"]
            for j, s in enumerate(_seeds(ctx["seed"], pass_no, 2 * i, n_null)):
                v = loop.call(f"{shape['name']}.null[{j}]", trial, null, s, math.inf,
                              check=valid)
                if v is not None:
                    stats.append(max(v.per_frequency))
            threshold = (float(np.quantile(stats, 1 - SpectralDetection.ALPHA, method="higher"))
                         if stats else math.inf)
            tops, first = [], loop.last() + 1
            for j, s in enumerate(_seeds(ctx["seed"], pass_no, 2 * i + 1, n_planted)):
                v = loop.call(f"{shape['name']}.planted[{j}]", trial, planted, s, threshold,
                              check=valid)
                if v is not None:
                    tops.append(v.per_frequency[0])
            if shape["name"] == "circle1":
                # BBP: the top eigenvalue at snr > 1 concentrates at snr + 1/snr
                want = SpectralDetection.SNR + 1 / SpectralDetection.SNR
                mean = float(np.mean(tops)) if tops else math.nan
                if not abs(mean - want) <= 0.1:
                    loop.fail(range(first, loop.last() + 1),
                              f"circle1 mean top eigenvalue {mean:.4f}, want {want:.4f} +- 0.1")


# ---------------------------------------------------------------------------
# exact-moments
# ---------------------------------------------------------------------------

# ldlr_exact_multinomial(5, 20, 1, 6, exact=True).terms, which an independent
# route (a dynamic programme over the cells' squared counts) reproduces
EXACT_5_20_6 = ("1", "2", "59/20", "4621/1200", "91099/19200", "10947617/1920000",
                "313861151/46080000")


class ExactMoments:
    """LDLR enumeration, bound checks and suites; no eigen work.

    The phase-diagram suite keeps its default snr grid, n and degree rule,
    so it re-enumerates count vectors once per snr and falls back to Monte
    Carlo at L=13; L=11, which alone takes 5 s and 1.9 GB per snr, is left
    out of the grid so a pass fits the run.  The bound suite keeps only L=3
    in its t-recursion grid, and the rational route runs at (5, 20, 6), for
    the same reason.  The float path of acceptance test 04 (L=3, lam=0.9) is
    swept over n = 50, 60, .., 400 rather than its four points; those calls
    of 2-60 ms hold the median operation, where the sub-millisecond oracle
    instances would make it jitter with the machine.  The short calls (the
    sweep and the instances of acceptance test 01) run twice per pass, spread
    between the long ones, so the median and p90, which they hold, rest on
    twice as many calls taken all through the pass.  An operation is one
    public LDLR, bound or suite call.
    """

    PHASE = {"L_grid": [3, 5, 7, 9, 13]}
    BOUND = {"trec_L": [3]}
    EXACT = (5, 20, 6)
    FLOAT_N = range(50, 401, 10)
    MD = ("cyclic", 2, 15, 3)             # (L n^2)^d = 0.91 of md_count's budget

    @staticmethod
    def setup(seed, workdir):
        oracle = [(L, n) for L in (2, 3, 4) for n in range(1, 11) if L ** n <= 10 ** 5]
        return {"seed": seed, "workdir": workdir, "oracle": oracle,
                "ref": tuple(Fraction(t) for t in EXACT_5_20_6)}

    @staticmethod
    def warm_up(ctx):
        ldlr.ldlr_exact_multinomial(3, 10, 0.9, 3, exact=True)

    @staticmethod
    def run_pass(ctx, loop, pass_no):
        wd, ref = ctx["workdir"], ctx["ref"]
        bound = loop.call("polylog_neg(6,0.81)", ldlr.polylog_neg, 6, 0.81, check=_finite_check)

        def rational():
            L, n, D = ExactMoments.EXACT
            loop.call(f"exact({L},{n},{D})", ldlr.ldlr_exact_multinomial, L, n, 1, D,
                      exact=True, check=lambda r: None if tuple(r.terms) == ref
                      else "rational terms differ from the stored reference")
            loop.call(f"float({L},{n},{D})", ldlr.ldlr_exact_multinomial, L, n, 1, D,
                      check=lambda r: _close(r.terms, ref, 1e-9))

        def md():
            prior, L, n, d = ExactMoments.MD
            count = loop.call("md_count", ldlr.md_count, prior, L, n, d)
            loop.call("exact-all-freq", ldlr.ldlr_exact_multinomial, L, n, 1, d, exact=True,
                      statistic="all_frequencies",
                      check=lambda r: None if count is None
                      or r.terms[d] * Fraction(n) ** d * math.factorial(d) == count
                      else "md_count differs from the all-frequency multinomial moment")

        heavy = [
            partial(loop.call, "phase-diagram", _suite, "phase-diagram", 1, wd,
                    ExactMoments.PHASE, check=lambda r: _suite_check(r) or (
                        None if all(row["ldlr_cumulative"] >= 1 for row in r.rows)
                        else "cumulative second moment below 1")),
            partial(loop.call, "oracle-suite", _suite, "oracle-suite", 2024, wd,
                    check=_suite_check),
            partial(loop.call, "bound-suite", _suite, "bound-suite", 1, wd, ExactMoments.BOUND,
                    check=_suite_check),
            rational,
            md,
        ]
        _interleave(heavy, ExactMoments.short_calls(ctx, loop, bound) * 2)

    @staticmethod
    def short_calls(ctx, loop, bound):
        """The float sweep of acceptance test 04 and the instances of test 01, as steps."""
        def sweep(n):
            D = int(n ** 0.3)
            loop.call(f"float(3,{n},{D})", ldlr.ldlr_exact_multinomial, 3, n, 0.9, D,
                      check=lambda r: None if bound is None or float(r.cumulative) <= bound
                      else f"cumulative {float(r.cumulative)} above the polylog bound")
            loop.call(f"float(3,{n},60)", ldlr.ldlr_exact_multinomial, 3, n, 0.9, 60,
                      check=lambda r: _plateau(r, bound))

        def oracle(L, n):
            a = loop.call(f"exact-oracle({L},{n})", ldlr.ldlr_exact_multinomial, L, n, 0.9, 4,
                          exact=True)
            loop.call(f"bruteforce({L},{n})", ldlr.ldlr_bruteforce_signals, L, n, 0.9, 4,
                      exact=True,
                      check=lambda b: None if a is None or a.terms == b.terms
                      else f"exact and brute force differ at L={L} n={n}")

        return ([partial(sweep, n) for n in ExactMoments.FLOAT_N]
                + [partial(oracle, L, n) for L, n in ctx["oracle"]])


def _close(terms, ref, rel):
    worst = max(abs(float(t) - float(r)) / max(1.0, abs(float(r))) for t, r in zip(terms, ref))
    return None if worst <= rel and len(terms) == len(ref) else f"relative error {worst:.3e}"


def _plateau(rep, bound):
    """Acceptance test 04: the terms plateau below the polylog bound by degree 60."""
    running = 0.0
    for d, t in enumerate(rep.terms):
        running += float(t)
        if d > 0 and float(t) < 1e-3 * running:
            return None if bound is None or running <= bound else f"plateau {running} above bound"
    return "no plateau by degree 60"


# ---------------------------------------------------------------------------
# group-montecarlo
# ---------------------------------------------------------------------------

# Exact cumulative second moments the Monte-Carlo estimates are gated
# against: ldlr_exact_multinomial(L, n, 0.9, 4) for (3, 50) and (8, 20); the
# quaternion-group overlap equals the order-8 count statistic.
EXACT_CUM_3_50 = 3.38759330404537
EXACT_CUM_8_20 = 26.34613739209568


class GroupMonteCarlo:
    """Sampling-based estimates and non-abelian group paths.

    Monte-Carlo overlaps on cyclic(L=3), n=50, D=4, 1e5 samples (the
    README shape, heavy in bootstrap memory) and the per-sample Python loop
    of the quaternion8 branch (n=20, D=4, 2e4 samples); quaternion8 and
    dihedral(3) observations at n=100 (GSE-heavy) and swept over n = 40..80;
    null calibration on the dense eigen path; the indicator change of basis
    on dihedral(3) at n = 30..68 and on noise-free scores at n=50; and the
    equivalence suite.  The draws and indicator trials are spread between
    the long calls.
    """

    MC_SEED = 1
    SNR = 0.9
    # Observations sampled per pass, as (model, n).  The n=100 draws are the
    # GSE-heavy shape.  The sweeps over n = 40..80 hold the median operation:
    # their latency rises smoothly with n, where a block of identical draws
    # would put the median on one latency that jumps with the machine's
    # speed.  They stay below n=100, where sampling time jumps tenfold.
    SAMPLES = ([("q8", 100)] * 8 + [("d3", 100)] * 8
               + [("q8", n) for n in range(40, 81)] + [("d3", n) for n in range(40, 81, 4)])
    # Indicator trials on dihedral(3), one per n; the sweep holds the p90
    # operation, for the same reason as the sample sweeps hold the median.
    INDICATOR_N = range(30, 70, 2)

    @staticmethod
    def setup(seed, workdir):
        q8, q8_irreps = gs.build_catalog("quaternion8")
        d3, d3_irreps = gs.build_catalog("dihedral(3)")
        snr = GroupMonteCarlo.SNR
        return {
            "seed": seed, "workdir": workdir,
            "cyclic3": gs.Model("cyclic", L=3, snr=snr),
            "q8": gs.Model("group", snr=snr, group=q8, irreps=q8_irreps.nonredundant()),
            "d3": gs.Model("group", snr=snr, group=d3, irreps=d3_irreps.nonredundant()),
            "d3_group": d3, "d3_full": d3_irreps,
        }

    @staticmethod
    def warm_up(ctx):
        ldlr.ldlr_montecarlo_overlap(ctx["q8"], 8, 2, 100, seed=GroupMonteCarlo.MC_SEED)

    @staticmethod
    def run_pass(ctx, loop, pass_no):
        mc = GroupMonteCarlo
        seed = ctx["seed"]
        group, full = ctx["d3_group"], ctx["d3_full"]

        def draw(j, key, n, s):
            loop.call(f"sample-{key}(n={n})[{j}]", ctx[key].sample, n, seed=s,
                      check=_hermitian_check)

        def indicator(n, s):
            gamma = mc.SNR * math.sqrt(group.order / n)
            obs = loop.call(f"sample-indicator(n={n})", models.sample_indicator, group, n, gamma,
                            seed=s)
            if obs is not None:
                loop.call(f"indicator-to-canonical(n={n})", gs.indicator_to_canonical, obs, group,
                          full, check=_hermitian_check)

        def clean_indicator():
            n = 50
            gamma = mc.SNR * math.sqrt(group.order / n)
            clean = _clean_indicator(group, n, gamma, _seeds(seed, pass_no, 3, 1)[0])
            loop.call("indicator-clean", gs.indicator_to_canonical, clean, group, full,
                      check=lambda c: _indicator_signal_check(c, clean, group, full))

        calibration_seed = _seeds(seed, pass_no, 2, 1)[0]
        heavy = [
            partial(loop.call, "mc-cyclic3", ldlr.ldlr_montecarlo_overlap, ctx["cyclic3"], 50, 4,
                    10 ** 5, seed=mc.MC_SEED, check=lambda r: _mc_check(r, EXACT_CUM_3_50)),
            partial(loop.call, "mc-quaternion8", ldlr.ldlr_montecarlo_overlap, ctx["q8"], 20, 4,
                    2 * 10 ** 4, seed=mc.MC_SEED, check=lambda r: _mc_check(r, EXACT_CUM_8_20)),
        ] + [    # channel orders 100 and 200: the dense path
            partial(loop.call, f"calibrate-{key}", gs.calibrate_threshold, ctx[key].null(), 100,
                    gs.DetectorConfig(calibration_trials=50), seed=calibration_seed,
                    check=_finite_check)
            for key in ("q8", "d3")
        ] + [
            clean_indicator,
            partial(loop.call, "equivalence-suite", _suite, "equivalence-suite", 3,
                    ctx["workdir"], check=_suite_check),
        ]
        light = ([partial(draw, j, key, n, s) for j, ((key, n), s) in enumerate(
                     zip(mc.SAMPLES, _seeds(seed, pass_no, 4, len(mc.SAMPLES))))]
                 + [partial(indicator, n, s) for n, s in zip(
                     mc.INDICATOR_N, _seeds(seed, pass_no, 1, len(mc.INDICATOR_N)))])
        _interleave(heavy, light)


def _mc_check(rep, exact):
    gap = abs(rep.cumulative - exact)
    se = rep.stderr[-1]
    return None if gap <= 3 * se else f"MC gap {gap:.4g} exceeds 3 stderr ({3 * se:.4g})"


def _clean_indicator(group, n, gamma, seed):
    """Noise-free score tables: gamma at the true relative element, 0 elsewhere."""
    u = models.sample_signal(("haar", group), n, seed=seed).values
    scores = np.zeros((n, n, group.order), dtype=complex)
    rel = group.mul[np.ix_(u, group.inverse[u])]
    k, j = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    scores[k, j, rel] = gamma
    return models.IndicatorObservation(scores, gamma, u, n, seed)


def _indicator_signal_check(canon, clean, group, full):
    """Each block must equal (snr/n) rho(u_a) rho(u_b)^-1 within 1e-10."""
    n, u = clean.n, clean.signal
    snr = clean.gamma * math.sqrt(n / group.order)
    worst = 0.0
    for freq, irrep in zip(canon.freqs, [r for r in full if not r.is_trivial]):
        d = irrep.dim
        a = irrep.matrices[u]                       # (n, d, d)
        b = irrep.matrices[group.inverse[u]]
        want = (snr / n) * np.einsum("aij,bjk->aibk", a, b).reshape(n * d, n * d)
        worst = max(worst, float(np.abs(freq.matrix - want).max()))
    return None if worst <= 1e-10 else f"indicator signal error {worst:.3e}"


WORKLOADS = {
    "spectral-detection": SpectralDetection,
    "exact-moments": ExactMoments,
    "group-montecarlo": GroupMonteCarlo,
}
