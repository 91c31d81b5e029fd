"""Repeat the benchmark over seeds and summarise every metric's spread.

    python3 perfbench/reference.py --runs 10 --out perfbench/results/reference.json
    python3 perfbench/reference.py --runs 1     # every workload once, every metric

Runs ``run.py`` once per seed for each workload, one after another, then
reports per metric, with its unit, the median, the quartiles
(``statistics.quantiles`` with n=4) and the spread, the distance between the
quartiles as a share of the median, next to the bound from
``BENCHMARK.json``.  ``--trace-runs`` adds traced runs whose per-layer
metrics are summarised the same way.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def spread(values) -> dict:
    med = statistics.median(values)
    if len(values) < 2:
        return {"median": med, "values": values}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "values": values}


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    tag = f"{workload}-seed{seed}-trace{trace}"
    result["record"] = json.loads((HERE / "out" / f"result-{tag}.json").read_text())
    return result


def summarise(results: list) -> dict:
    names = results[0]["metrics"].keys()
    return {name: spread([r["metrics"][name]["value"] for r in results]) for name in names}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--trace-runs", type=int, default=0)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    def show(name, s):
        line = f"  {name:30s} {s['median']:12.6g} {units[name]}"
        if s.get("spread") is not None:
            line += f"  spread {s['spread']:.4f}"
            if name in bounds:
                line += f"  bound {bounds[name]}"
                line += "  <-- above a third of the bound" if s["spread"] >= bounds[name] / 3 else ""
        print(line)

    report = {"run_seconds": spec["run_seconds"], "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        seeds = range(args.first_seed, args.first_seed + args.runs)
        runs = [run_once(workload, s, spec["run_seconds"], 0) for s in seeds]
        entry = {"seeds": list(seeds), "end_to_end": summarise(runs),
                 "all_correct": all(r["correct"] for r in runs),
                 "attempted": [r["attempted"] for r in runs],
                 "failed": [r["failed"] for r in runs],
                 "environment": runs[0]["record"]["environment"]}
        attempted, failed = sum(entry["attempted"]), sum(entry["failed"])
        ok &= entry["all_correct"]
        print(f"{workload}: {args.runs} runs, all correct {entry['all_correct']}, "
              f"fail_ratio {failed / attempted:.4g} of {attempted} operations")
        for name, s in entry["end_to_end"].items():
            show(name, s)
        if args.trace_runs:
            traced = [run_once(workload, s, spec["run_seconds"], 1)
                      for s in range(args.first_seed, args.first_seed + args.trace_runs)]
            entry["per_layer"] = summarise(traced)
            for name, s in entry["per_layer"].items():
                show(name, s)
        report["workloads"][workload] = entry
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
