"""Command-line interface.

Subcommands: simulate, sample-ensemble, ldlr, detect, power, md-count,
bounds, suite, phase-diagram.  ``detect`` calibrates on the null model named
in the observation file, which ``simulate`` writes for every model it
samples; ``models.Model.from_name`` reads the name.  Every output file is
written to a temporary file and renamed into place.  Exit codes: 0 success,
1 a suite assertion failed, 2 a usage error (a bad flag or grid) or a
configuration error (a bad config or input file).  ``ldlr`` and ``md-count``
run at the library's default budgets; a suite config's ``budgets`` is the one
place to lift them.  An observation file's ``n`` and each channel's ``dim`` must
keep the library's size rule (an integer >= 1, never a bool).
"""
from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import bounds as bounds_mod
from . import ldlr as ldlr_mod
from .detect import (DetectorConfig, calibrate_threshold, detect as run_detect,
                     power_curve)
from . import models as models_mod
from ._rules import SIZE
from .ensembles import EnsembleKind, sample
from .errors import ConfigError, GroupsynchError, InvalidParameterError
from .experiments import (_PRIORS, KINDS, ExperimentConfig, _atomic_write, _ldlr_report,
                          _load_json, run, write_csv)

EXIT_OK = 0
EXIT_ASSERT = 1
EXIT_CONFIG = 2


def _matrix_to_json(m: np.ndarray):
    m = np.asarray(m, dtype=complex)
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def _matrix_from_json(data) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in data])


def _obs_to_json(obs: models_mod.SynchObservation) -> dict:
    return {
        "model": obs.model,
        "n": obs.n,
        "seed": obs.seed,
        "freqs": [{
            "label": f.label, "snr": f.snr, "dim": f.dim, "type": f.type_tag,
            "matrix": _matrix_to_json(f.matrix),
        } for f in obs.freqs],
    }


def _obs_from_json(path) -> models_mod.SynchObservation:
    """The observation ``simulate`` wrote to ``path``, or a ConfigError under ``in``."""
    data = _load_json(path, "in")
    try:
        freqs = tuple(
            models_mod.FrequencyObservation(
                _matrix_from_json(f["matrix"]), f["snr"], f["dim"], f["type"], f["label"])
            for f in data["freqs"])
        obs = models_mod.SynchObservation(freqs, data["model"], data["n"], data.get("seed"))
    except KeyError as exc:
        raise ConfigError("in", f"observation has no {exc.args[0]!r}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError("in", f"malformed observation: {exc}") from exc
    if not isinstance(obs.model, str):
        raise ConfigError("in", "observation 'model' must be a string")
    if not SIZE.holds(obs.n):
        raise ConfigError("in", f"observation 'n' must be {SIZE}")
    for f in obs.freqs:     # the order models._channel builds: n dim, doubled for GSE
        if not SIZE.holds(f.dim):
            raise ConfigError("in", f"channel {f.label!r} 'dim' must be {SIZE}")
        order = obs.n * f.dim * (2 if f.type_tag == "quaternionic" else 1)
        if f.matrix.shape != (order, order):
            raise ConfigError("in", f"channel {f.label!r} is {f.matrix.shape}, not the "
                                    f"{order} x {order} that n = {obs.n} and dim = {f.dim} give")
    return obs


def _write_json(path, payload) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    if path in (None, "-"):
        print(text)
    else:
        _atomic_write(path, lambda fh: fh.write(text + "\n"))


def _flag_model(args) -> models_mod.Model:
    """The model that --model, --L and --group name."""
    return models_mod.Model.from_name(args.group if args.model == "group" else args.model,
                                      args.L)


def _cmd_simulate(args) -> int:
    obs = models_mod._sample(_flag_model(args), args.snr, args.n, args.seed)
    _write_json(args.out, _obs_to_json(obs))
    return EXIT_OK


def _cmd_sample_ensemble(args) -> int:
    noise = sample(EnsembleKind(args.kind, args.n), args.seed)
    _write_json(args.out, {
        "kind": args.kind, "n": args.n, "seed": args.seed,
        "matrix": _matrix_to_json(noise.entries),
    })
    return EXIT_OK


def _cmd_ldlr(args) -> int:
    rep = _ldlr_report(args.method, args.prior, args.L, args.n, args.snr, args.D,
                       exact=args.rational, statistic=args.statistic,
                       samples=args.samples, seed=args.seed, budgets={})
    payload = {
        "params": rep.params, "method": rep.method,
        "terms": [float(t) for t in rep.terms],
        "cumulative": float(rep.cumulative),
    }
    if rep.stderr is not None:
        payload["stderr"] = list(rep.stderr)
    _write_json(args.out, payload)
    if args.csv:
        rows = [{"d": d, "term": float(t)} for d, t in enumerate(rep.terms)]
        write_csv(args.csv, rows, columns=["d", "term"])
    return EXIT_OK


def _cmd_md_count(args) -> int:
    counts = ldlr_mod._md_counts(args.prior, args.L, args.n, args.D, ldlr_mod.MD_BUDGET)
    _write_json(args.out, {"prior": args.prior, "L": args.L, "n": args.n,
                           "counts": counts})
    return EXIT_OK


def _cmd_detect(args) -> int:
    obs = _obs_from_json(args.infile)
    try:
        model = models_mod.Model.from_name(obs.model)      # the pure-noise model
    except InvalidParameterError as exc:
        raise ConfigError("in", f"cannot rebuild a null model for {obs.model!r}: "
                                f"{exc}") from exc
    config = DetectorConfig(alpha=args.alpha,
                                       calibration_trials=args.calib_trials)
    threshold = calibrate_threshold(model, obs.n, config, seed=args.seed)
    verdict = run_detect(obs, threshold)
    _write_json(args.out, {
        "label": verdict.label,
        "threshold": verdict.threshold,
        "per_frequency": list(verdict.per_frequency),
        "alpha": args.alpha,
    })
    return EXIT_OK


def _cmd_power(args) -> int:
    config = DetectorConfig(alpha=args.alpha,
                                       calibration_trials=args.calib_trials)
    rows = power_curve(_flag_model(args), args.n, args.snr_grid,
                                  args.trials, config, seed=args.seed)
    if args.out and args.out.endswith(".csv"):
        write_csv(args.out, rows)
    else:
        _write_json(args.out, rows)
    return EXIT_OK


def _snr_grid(spec: str) -> list:
    """argparse type of --lambda-grid: a:b:step with step > 0, or comma-separated values."""
    try:
        if ":" not in spec:
            return [float(x) for x in spec.split(",")]
        a, b, step = (float(x) for x in spec.split(":"))
        if not step > 0:
            raise argparse.ArgumentTypeError(f"step must be > 0 in {spec!r}")
        grid = [round(a + i * step, 12) for i in range(int((b - a) / step + 1.5))
                if a + i * step <= b + 1e-12]
    except (ValueError, OverflowError):
        raise argparse.ArgumentTypeError(f"not a:b:step or comma-separated numbers: "
                                         f"{spec!r}") from None
    if not grid:
        raise argparse.ArgumentTypeError(f"empty range {spec!r}")
    return grid


def _int_grid(spec: str) -> list:
    """argparse type of --L-grid: comma-separated integers (argparse reports a ValueError)."""
    return [int(x) for x in spec.split(",")]


def _cmd_bounds(args) -> int:
    failures = []
    if args.which in ("clt", "all"):
        res = bounds_mod.check_clt_moment_bound(
            ("bernoulli", args.p) if args.distribution == "bernoulli"
            else "rademacher", args.n, args.alpha)
        print(f"clt-moment: lhs={res.lhs:.6g} rhs={res.rhs:.6g} "
              f"holds={res.holds}")
        if not res.holds:
            failures.append("clt")
    if args.which in ("t-recursion", "all"):
        res = bounds_mod.check_t_recursion(args.L, args.n, args.k,
                                           args.alpha_vec, args.gamma)
        print(f"t-recursion: worst lhs={res.lhs:.6g} rhs={res.rhs:.6g} "
              f"holds={res.holds} witness={res.detail['worst_tuple']}")
        if not res.holds:
            failures.append("t-recursion")
    if args.which in ("l3", "all"):
        for res in bounds_mod.check_l3_moment_bound(args.n, args.dmax):
            print(f"l3-moment d={res.detail['d']}: lhs={res.lhs:.6g} "
                  f"rhs={res.rhs:.6g} holds={res.holds}")
            if not res.holds:
                failures.append(f"l3:d={res.detail['d']}")
    return EXIT_OK if not failures else EXIT_ASSERT


def _cmd_suite(args) -> int:
    if args.config:
        cfg = ExperimentConfig.from_json(args.config)
        override = {}
        if args.seed is not None:
            override["seed"] = args.seed
        if override or args.csv or args.manifest:
            data = cfg.canonical()
            data.update(override)
            data["out"] = {"csv": args.csv or cfg.out_csv,
                           "manifest": args.manifest or cfg.out_manifest}
            cfg = ExperimentConfig.from_dict(data)
    else:
        cfg = ExperimentConfig.from_dict({
            "kind": args.kind, "seed": args.seed if args.seed is not None else 0,
            "out": {"csv": args.csv, "manifest": args.manifest},
        })
    result = run(cfg)
    for failure in result.failures:
        print(f"FAIL {failure}", file=sys.stderr)
    print(f"{cfg.kind}: {len(result.rows)} rows, "
          f"{len(result.failures)} failures, hash {cfg.hash()}")
    return result.exit_code


def _cmd_phase_diagram(args) -> int:
    cfg = ExperimentConfig.from_dict({
        "kind": "phase-diagram",
        "seed": args.seed,
        "params": {"L_grid": args.L_grid, "snr_grid": args.snr_grid,
                   "n": args.n, "trials": args.trials},
        "out": {"csv": args.out, "manifest": args.manifest},
    })
    result = run(cfg)
    print(f"phase-diagram: {len(result.rows)} rows -> {args.out}")
    return result.exit_code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="groupsynch",
        description="Multi-frequency synchronization models, LDLR second "
                    "moments, and spectral detection")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="sample a synchronization observation")
    p.add_argument("--model", choices=("circle", "cyclic", "group"), required=True)
    p.add_argument("--L", type=int, default=2)
    p.add_argument("--group", default="dihedral(3)",
                   help="catalog name for --model group")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--lambda", dest="snr", type=lambda s: [float(x) for x in s.split(",")],
                   default=[1.0], help="signal strength, scalar or csv per frequency")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("sample-ensemble", help="sample a Gaussian Hermitian matrix")
    p.add_argument("--kind", choices=("GOE", "GUE", "GSE"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_sample_ensemble)

    p = sub.add_parser("ldlr", help="degree-D likelihood-ratio second moment")
    p.add_argument("--method", choices=tuple(ldlr_mod._ROUTES), required=True)
    p.add_argument("--prior", choices=_PRIORS, default="cyclic")
    p.add_argument("--statistic", help="default: the route's own statistic")
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--lambda", dest="snr", type=float, required=True)
    p.add_argument("--D", type=int, required=True)
    p.add_argument("--rational", action="store_true")
    p.add_argument("--samples", type=int, default=20000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="-")
    p.add_argument("--csv", default=None, help="also write the term table as CSV")
    p.set_defaults(func=_cmd_ldlr)

    p = sub.add_parser("md-count", help="zero-sum tuple-family cardinalities")
    p.add_argument("--prior", choices=tuple(ldlr_mod._ROUTES["md"][0]), required=True)
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--D", type=int, required=True)
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_md_count)

    p = sub.add_parser("detect", help="spectral test on a stored observation")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--calib-trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_detect)

    p = sub.add_parser("power", help="empirical power over a signal-strength grid")
    p.add_argument("--model", choices=("circle", "cyclic", "group"), required=True)
    p.add_argument("--L", type=int, default=1)
    p.add_argument("--group", default="dihedral(3)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--lambda-grid", dest="snr_grid", type=_snr_grid, required=True,
                   help="a:b:step or comma-separated values")
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--calib-trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help=".csv path or JSON to stdout")
    p.set_defaults(func=_cmd_power)

    p = sub.add_parser("bounds", help="run one of the moment-inequality checks")
    p.add_argument("--which", choices=("clt", "t-recursion", "l3", "all"),
                   default="all")
    p.add_argument("--distribution", choices=("rademacher", "bernoulli"),
                   default="rademacher")
    p.add_argument("--p", type=float, default=0.5)
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--alpha", type=float, default=2.0)
    p.add_argument("--L", type=int, default=3)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--alpha-vec", type=lambda s: [float(x) for x in s.split(",")],
                   default=[1.0, 1.0])
    p.add_argument("--gamma", type=float, default=0.0)
    p.add_argument("--dmax", type=int, default=5)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("suite", help="run a configured experiment suite")
    p.add_argument("--config", default=None, help="JSON config path")
    p.add_argument("--kind", choices=KINDS, default="oracle-suite")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--csv", default=None)
    p.add_argument("--manifest", default=None)
    p.set_defaults(func=_cmd_suite)

    p = sub.add_parser("phase-diagram", help="emit phase-boundary markers and LDLR values")
    p.add_argument("--L-grid", type=_int_grid, default="3,5,7,9,11,13")
    p.add_argument("--lambda-grid", dest="snr_grid", type=_snr_grid, default="0.6:1.2:0.2")
    p.add_argument("--n", type=int, default=16)
    p.add_argument("--trials", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--manifest", default=None)
    p.set_defaults(func=_cmd_phase_diagram)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except GroupsynchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        # a refused argument is a configuration error, as the same value in a config is
        return EXIT_CONFIG if isinstance(exc, InvalidParameterError) else EXIT_ASSERT


if __name__ == "__main__":
    sys.exit(main())
