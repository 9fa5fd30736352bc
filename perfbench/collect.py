"""Run every workload over several seeds and summarise the spread.

    python3 perfbench/collect.py --seeds 10 --out perfbench/results/baseline.json

Reads ``BENCHMARK.json`` for the workloads, the run length and the bounds;
runs ``run.py`` once per (workload, seed) for seeds 1 to N with tracing off,
one after the other, plus one traced run per workload on seed 1. For each
end-to-end metric it reports the median, the quartiles and their distance
as a share of the median, next to the metric's bound. Exits 1 if any run
failed a correctness check.
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


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if not proc.stdout.strip():
        raise SystemExit(f"{workload} seed {seed} printed nothing:\n{proc.stderr}")
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / statistics.median(values),
        "values": values,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    seeds = range(1, args.seeds + 1)
    summary, ok = {}, True
    for name in names:
        values = {metric: [] for metric in bounds}
        for seed in seeds:
            code, result = run(name, seed, seconds, 0)
            ok &= code == 0 and result["correct"]
            for metric in bounds:
                values[metric].append(result["metrics"][metric]["value"])
            print(f"{name} seed {seed}: " + " ".join(
                f"{m}={v[-1]:.4g}" for m, v in values.items()), flush=True)
        summary[name] = {"end_to_end": {m: summarise(v) for m, v in values.items()}}
        code, result = run(name, seeds[0], seconds, 1)
        ok &= code == 0 and result["correct"]
        summary[name]["per_layer"] = {m: v["value"] for m, v in result["metrics"].items()}

    print(f"\n{'workload':<14}{'metric':<16}{'median':>12}{'spread':>9}{'bound':>7}")
    for name, parts in summary.items():
        for metric, s in parts["end_to_end"].items():
            print(f"{name:<14}{metric:<16}{s['median']:>12.5g}{s['spread']:>9.3f}"
                  f"{bounds[metric]:>7}")
    if args.out:
        environment = json.loads(
            (HERE / "out" / f"{names[0]}-seed{seeds[0]}-trace0.json").read_text()
        )["environment"]
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps({
            "run_seconds": seconds, "seeds": list(seeds), "environment": environment,
            "bounds": bounds, "workloads": summary,
        }, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
