#!/usr/bin/env python3
"""Run the benchmark over several workloads and seeds and summarise the results.

Usage, from the root of a checkout:

    python3 benchmarks/sweep.py [--trace 0|1]

Every workload runs for BENCHMARK.json's ``run_seconds``. With ``--trace 0``
(the reference figures) it runs seeds 1-10 and prints, per workload and
end-to-end metric, the median, the quartiles and their distance as a share
of the median. With ``--trace 1`` it runs seed 1 and prints the per-layer
table, one column per workload. Raw results go to
``benchmarks/out/sweep-trace<0|1>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("mc-2A-400", "fit-3B-1000", "table1-pool")
SEEDS = range(1, 11)
SECONDS = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]


def run_once(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=HERE.parent, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}:\n{proc.stdout}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        print(proc.stdout, file=sys.stderr)
    return result


def environment() -> str:
    import numpy
    import scipy

    return (f"{os.cpu_count()} cores, Python {platform.python_version()}, "
            f"numpy {numpy.__version__}, scipy {scipy.__version__}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    seeds = SEEDS[:1] if args.trace else SEEDS

    print(environment())
    raw = {}
    for w in WORKLOADS:
        raw[w] = []
        for s in seeds:
            res = run_once(w, s, args.trace)
            raw[w].append(res)
            print(f"{w} seed {s}: correct {res['correct']}, {res['failed']}/{res['attempted']} failed", flush=True)
    (HERE / "out").mkdir(exist_ok=True)
    (HERE / "out" / f"sweep-trace{args.trace}.json").write_text(json.dumps(raw, indent=1))

    if args.trace:
        names = list(raw[WORKLOADS[0]][0]["metrics"])
        print(f"{'metric':36s} " + " ".join(f"{w:>14s}" for w in WORKLOADS))
        for name in names:
            print(f"{name:36s} " + " ".join(f"{raw[w][0]['metrics'][name]['value']:14.6g}" for w in WORKLOADS))
        return 0
    print(f"{'workload':12s} {'metric':14s} {'median':>10s} {'q1':>10s} {'q3':>10s} {'iqr/med':>8s}")
    for w in WORKLOADS:
        for name, m in raw[w][0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in raw[w]]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            print(f"{w:12s} {name:14s} {med:10.4f} {q1:10.4f} {q3:10.4f} {(q3 - q1) / med:8.4f}  {m['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
