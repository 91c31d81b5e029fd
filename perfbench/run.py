"""Closed-loop benchmark of groupsynch: three workloads, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload exact-moments --seed 1 --seconds 30 --trace 0

One process drives the public API as a closed loop: a single caller issues
the next operation only when the previous one returns.  ``--trace 0`` times
whole passes over the workload's operation mix for ``--seconds`` and prints
the end-to-end metrics; ``--trace 1`` runs one pass with every layer's
public functions wrapped (see ``tracing.py``), then untraced passes for the
rest of the time, and prints the per-layer metrics and the tracing overhead.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The run leaves its
full record, with the environment, under ``perfbench/out/``.

BLAS threads are left at the process default and recorded, never set.
"""
from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from tracing import ROOT_LAYER, Tracer, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("spectral-detection", "exact-moments", "group-montecarlo")
SETUP_PROBES = 3

END_TO_END_UNITS = {"setup_s": "s", "job_s": "s", "op_ms_p50": "ms", "op_ms_p90": "ms",
                    "cpu_s": "s", "peak_rss_mb": "MB"}


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the smallest value with at least p% of values at or below it."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def count_beyond(n: int, p: float) -> int:
    """How many of n samples lie beyond the nearest-rank p-th percentile."""
    return n - max(1, math.ceil(p / 100.0 * n))


# ---------------------------------------------------------------------------
# Program and environment
# ---------------------------------------------------------------------------

def check_sources() -> None:
    if not (SRC / "groupsynch" / "__init__.py").is_file():
        raise SystemExit(f"groupsynch sources not found under {SRC}")


def load_workloads():
    """Import groupsynch from this checkout's ``src`` and return the workloads module."""
    check_sources()
    package = SRC / "groupsynch"
    sys.path.insert(0, str(SRC))
    import groupsynch
    if Path(groupsynch.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"imported groupsynch from {groupsynch.__file__}, not {package}")
    import workloads
    return workloads


def git_commit(root: Path):
    """The commit checked out at ``root``, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def openblas_info(module, suffix: str) -> dict:
    """Config string and thread count of the OpenBLAS bundled with numpy or scipy."""
    libdir = Path(module.__file__).resolve().parent.parent / f"{module.__name__}.libs"
    libs = sorted(libdir.glob("libscipy_openblas*.so*"))
    if not libs:
        return {"library": None}
    info = {"library": libs[0].name}
    try:
        lib = ctypes.CDLL(str(libs[0]))
        get_threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
        get_threads.argtypes, get_threads.restype = [], ctypes.c_int
        get_config = getattr(lib, f"scipy_openblas_get_config{suffix}")
        get_config.argtypes, get_config.restype = [], ctypes.c_char_p
        info["threads"] = int(get_threads())
        info["config"] = get_config().decode().strip()
    except (OSError, AttributeError) as exc:
        info["error"] = f"{type(exc).__name__}: {exc}"
    return info


def environment() -> dict:
    import numpy
    import scipy
    return {
        "git_commit": git_commit(ROOT),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_numpy": openblas_info(numpy, "64_"),
        "blas_scipy": openblas_info(scipy, ""),
        "thread_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
                       if k in os.environ},
    }


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

def setup_probe(workload: str, seed: int) -> None:
    """Fresh-process set-up: import, build catalogs and models, one warm-up call."""
    t0 = time.perf_counter()
    wl = load_workloads().WORKLOADS[workload]
    wl.warm_up(wl.setup(seed, None))
    print(json.dumps({"setup_s": time.perf_counter() - t0}))


def measure_setup(workload: str, seed: int) -> list:
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=150, check=True)
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def timed_passes(wl, ctx, loop, seconds: float, walls: list, cpus: list, first: int = 0) -> None:
    """Run as many passes as fit in ``seconds`` at the first pass's pace; at least one.

    The count is fixed after the first pass, so a slow later pass does not
    change how many passes, and so how many input draws, a run measures.
    """
    count = None
    while count is None or len(walls) < count:
        t0, c0 = time.perf_counter(), time.process_time()
        wl.run_pass(ctx, loop, first + len(walls))
        walls.append(time.perf_counter() - t0)
        cpus.append(time.process_time() - c0)
        if count is None:
            count = max(1, round(seconds / walls[0]))


def end_to_end(wl, ctx, loop, seconds, setup_times) -> tuple:
    walls, cpus = [], []
    timed_passes(wl, ctx, loop, seconds, walls, cpus)
    ms = [1000.0 * t for t in loop.latencies]
    metrics = {
        "setup_s": statistics.median(setup_times),
        "job_s": statistics.median(walls),
        "op_ms_p50": percentile(ms, 50),
        "op_ms_p90": percentile(ms, 90),
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = {"passes_s": walls, "pass_cpu_s": cpus, "setup_probes_s": setup_times,
              "operations": len(ms), "beyond_p90": count_beyond(len(ms), 90)}
    return metrics, detail


def traced(wl, ctx, loop, seconds, run_id, spans_path) -> tuple:
    """One traced pass first (so RSS growth is seen from a fresh process),
    then untraced passes for the rest of the time, for the overhead."""
    start = time.perf_counter()
    tracer = Tracer(run_id)
    with tracer:
        root = tracer.open(f"{ROOT_LAYER}.pass", ROOT_LAYER)
        wl.run_pass(ctx, loop, 0)
        tracer.close(root)
    traced_s = tracer.spans[root].duration
    walls, cpus = [], []
    timed_passes(wl, ctx, loop, max(0.0, seconds - (time.perf_counter() - start)), walls, cpus,
                 first=1)
    tracer.write(spans_path)
    metrics = layer_metrics(tracer.spans)
    untraced_s = statistics.median(walls)
    metrics.update({"trace.job_s": traced_s, "trace.untraced_job_s": untraced_s,
                    "trace.overhead_s": traced_s - untraced_s})
    layer_sum = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    detail = {"passes_s": walls, "spans": len(tracer.spans), "spans_file": str(spans_path),
              "self_time_sum_s": layer_sum + metrics["bench.uncovered_s"]}
    return metrics, detail


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    check_sources()
    setup_times = [] if args.trace else measure_setup(args.workload, args.seed)
    workloads = load_workloads()
    wl = workloads.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        ctx = wl.setup(args.seed, workdir)
        wl.warm_up(ctx)
        loop = workloads.Loop()
        if args.trace:
            metrics, detail = traced(wl, ctx, loop, args.seconds, tag,
                                     OUT / f"spans-{tag}.jsonl")
        else:
            metrics, detail = end_to_end(wl, ctx, loop, args.seconds, setup_times)

    attempted, failed = len(loop.latencies), len(loop.failed)
    env = environment()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "metrics": metrics, "detail": detail,
              "attempted": attempted, "failed": failed, "failures": loop.messages[:20],
              "op_ms": [[name, round(1000.0 * t, 3)]
                        for name, t in zip(loop.names, loop.latencies)],
              "environment": env}
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=1) + "\n")

    for msg in loop.messages[:20]:
        print(f"FAILED {msg}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{attempted} operations, fail_ratio {failed / attempted:.4g}")
    for key, value in detail.items():
        print(f"  {key}: {value}")
    units = END_TO_END_UNITS if not args.trace else {k: per_layer_unit(k) for k in metrics}
    for name in units:
        print(f"  {name:32s} {metrics[name]:.6g} {units[name]}")
    print(f"  environment: {json.dumps(env)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
