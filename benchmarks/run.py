#!/usr/bin/env python3
"""Benchmark of the cpls pipeline; prints one JSON result as its last line.

Usage, from the root of a checkout:

    python3 benchmarks/run.py --workload {mc-2A-400,fit-3B-1000,table1-pool}
                              --seed N --seconds T --trace {0,1}

Inputs come from ``--seed``. The run times fresh interpreters importing cpls
(``setup_s``), prepares and warms up the workload, runs whole rounds of it
for ``--seconds`` seconds, and checks every round's outputs. With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it runs
the first third of the time untraced and the rest traced, reports the
per-layer metrics and writes the spans to ``benchmarks/out/``.
See benchmarks/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_PROBES = 5

# One BLAS thread in every process, as in the pool's workers: a two-thread
# BLAS gains no wall time on the scan's small systems and makes the serial
# workloads' rates follow the host's load. The variables are read once, when
# numpy loads its BLAS, so they are set before anything imports numpy.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def cpu_s() -> float:
    """CPU of this process (all threads) and of its finished children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def setup_seconds(env: dict) -> float:
    """Median wall time of a fresh interpreter that imports cpls."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import cpls"], env=env, check=True, timeout=60)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_rounds(workload, seconds: float, tracer=None) -> list[dict]:
    """Whole rounds until ``seconds`` have passed (at least one)."""
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        r = len(rounds)
        c0, t0 = cpu_s(), time.perf_counter()
        try:
            if tracer is None:
                out = workload.round(r)
            else:
                with tracer.span("bench.op"):
                    out = workload.round(r, tracer)
        except Exception:  # the round's operations count as failed; the run goes on
            from workloads import RoundOut

            traceback.print_exc()
            out = RoundOut(units=workload.units, failed=workload.units, payload=None)
        wall = time.perf_counter() - t0
        rounds.append({"out": out, "wall": wall, "cpu": cpu_s() - c0})
    return rounds


def peak_rss_mb(workload) -> float:
    # The pooled workload runs in child processes; the others in this one.
    who = resource.RUSAGE_CHILDREN if workload.per_command else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "cpls" / "__init__.py").is_file():
        fail(f"no cpls package under {SRC}")
    sys.path.insert(0, str(SRC))
    import cpls

    if Path(cpls.__file__).resolve().parent != (SRC / "cpls").resolve():
        fail(f"imported cpls from {cpls.__file__}, not from {SRC}")
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    if args.seed < 0:
        fail("--seed must be nonnegative")
    workloads.OUT.mkdir(exist_ok=True)
    setup = setup_seconds(workloads.child_env())
    workload = workloads.WORKLOADS[args.workload](args.seed)
    workload.prepare()

    tracer = None
    if args.trace:
        untraced = run_rounds(workload, args.seconds / 3.0)
        tracer = tracing.Tracer()
        with tracer.installed():
            # The same round indices again, so the overhead compares like inputs.
            traced = run_rounds(workload, args.seconds - args.seconds / 3.0, tracer)
        rounds = untraced + traced
    else:
        rounds = run_rounds(workload, args.seconds)
    peak = peak_rss_mb(workload)

    results = workload.check([r["out"] for r in rounds if r["out"].payload is not None])
    for c in results:
        print(c)
    correct = all(c.ok for c in results)
    attempted = sum(r["out"].units for r in rounds)
    failed = sum(r["out"].failed for r in rounds)

    if args.trace:
        units = sum(r["out"].units for r in traced)
        common = min(len(untraced), len(traced))
        overhead = (sum(r["wall"] for r in traced[:common]) / sum(r["wall"] for r in untraced[:common]) - 1.0)
        values = tracing.layer_metrics(tracer.spans, units, len(traced), 100.0 * overhead)
        spans_path = workloads.OUT / f"spans-{workload.name}.jsonl"
        tracer.dump(spans_path)
        print(f"info: {len(tracer.spans)} spans written to {spans_path}")
        for name, _ in tracing.LAYER_METRICS:
            print(f"  {name:36s} {values[name]:.6g}")
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in tracing.LAYER_METRICS}
    else:
        rate = statistics.median(r["out"].units / r["wall"] for r in rounds)
        metrics = {
            "setup_s": {"value": setup, "unit": "s"},
            "reps_per_s": {"value": rate, "unit": "1/s"},
            "fits_per_s": {"value": rate, "unit": "1/s"},
            "cpu_s_per_op": {"value": statistics.median(r["cpu"] / r["out"].units for r in rounds), "unit": "s"},
            "peak_rss_mb": {"value": peak, "unit": "MB"},
        }
    print(f"info: {len(rounds)} rounds, {attempted} operations, checks {'passed' if correct else 'FAILED'}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
