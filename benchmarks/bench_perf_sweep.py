"""Sweep-runner performance benchmark: parallel vs serial execution.

Runs the same epoch-model grid three ways and proves the runner's core
contract on every measured run:

1. **serial** — ``SweepRunner(jobs=1)``, no cache: the reference ordering.
2. **parallel** — ``SweepRunner(jobs=4)``, no cache: must return the
   *identical* result list (per-job seeds derive from the root seed, not
   from worker identity, so results are bit-identical at any worker
   count).
3. **cached** — cold run populates the on-disk cache, warm run must
   execute **zero** cells and replay every value from disk.

The speedup gate (>= 2.5x at 4 workers) is enforced only on machines
with at least 4 CPUs — process-pool fan-out cannot beat serial on a
single core — and never under ``--smoke``; the measured numbers and the
enforcement decision are always recorded in ``BENCH_sweep.json`` at the
repository root.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_perf_sweep.py            # full
    PYTHONPATH=src python benchmarks/bench_perf_sweep.py --smoke    # quick
    PYTHONPATH=src python benchmarks/bench_perf_sweep.py --jobs 8
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))
if str(REPO_ROOT / "benchmarks") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

from repro.runner import Job, ResultCache, SweepRunner, derive_seed
from repro.sim.epoch import run_epoch_cell
from repro.workloads import SPEC2006_INT

from _common import CACHE_DIR, publish

ROOT_SEED = 47
GATE_SPEEDUP = 2.5
GATE_MIN_CPUS = 4


def sweep_jobs(horizon_s: float) -> list[Job]:
    return [
        Job.of(
            run_epoch_cell,
            key=f"perf/{name}",
            seed=derive_seed(ROOT_SEED, f"perf/{name}"),
            benchmark=name,
            horizon_s=horizon_s,
        )
        for name in SPEC2006_INT
    ]


def timed_run(cells: list[Job], jobs: int) -> tuple[list, dict, float]:
    runner = SweepRunner(jobs=jobs, root_seed=ROOT_SEED, cache=None)
    start = time.perf_counter()
    results = runner.run(cells)
    return results, runner.last_stats, time.perf_counter() - start


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny grid, no perf gate")
    parser.add_argument("--no-gate", action="store_true",
                        help="measure but do not enforce the speedup gate")
    parser.add_argument("--jobs", type=int, default=4,
                        help="worker count for the parallel run (default 4)")
    parser.add_argument("--horizon", type=float, default=60.0,
                        help="simulated seconds per epoch cell")
    args = parser.parse_args(argv)

    horizon = 5.0 if args.smoke else args.horizon
    cells = sweep_jobs(horizon)

    serial_results, serial_stats, t_serial = timed_run(cells, jobs=1)
    parallel_results, parallel_stats, t_parallel = timed_run(cells, jobs=args.jobs)

    assert serial_results == parallel_results, (
        "parallel sweep must be bit-identical to serial"
    )
    speedup = t_serial / t_parallel if t_parallel > 0 else float("inf")

    # Cache contract: cold run executes everything, warm run nothing.
    cache = ResultCache(CACHE_DIR / "perf_sweep")
    cache.clear()
    cold_runner = SweepRunner(jobs=1, root_seed=ROOT_SEED, cache=cache)
    cold_results = cold_runner.run(cells)
    cold_stats = dict(cold_runner.last_stats)
    warm_runner = SweepRunner(jobs=1, root_seed=ROOT_SEED, cache=cache)
    warm_results = warm_runner.run(cells)
    warm_stats = dict(warm_runner.last_stats)
    assert cold_stats["executed"] == len(cells)
    assert warm_stats["executed"] == 0, "warm cache run must execute nothing"
    assert warm_stats["cache_hits"] == len(cells)
    assert warm_results == cold_results == serial_results
    cache.clear()

    cpus = os.cpu_count() or 1
    pool_started = parallel_stats["mode"] == "parallel"
    gate_on = (not args.smoke and not args.no_gate
               and pool_started and cpus >= GATE_MIN_CPUS)

    lines = [
        f"sweep grid: {len(cells)} epoch cells, horizon {horizon:.0f}s",
        f"serial   ({serial_stats['mode']}):   {t_serial:8.2f}s",
        f"parallel ({parallel_stats['mode']}, {parallel_stats['workers']} "
        f"workers): {t_parallel:8.2f}s",
        f"speedup: {speedup:.2f}x  (gate {GATE_SPEEDUP}x "
        + ("ENFORCED" if gate_on else
           f"not enforced: cpus={cpus}, mode={parallel_stats['mode']}"
           + (", smoke" if args.smoke else "")),
        f"cache: cold executed {cold_stats['executed']}, "
        f"warm executed {warm_stats['executed']} "
        f"(hits {warm_stats['cache_hits']}/{len(cells)})",
        "results: parallel == serial == cached (elementwise)",
    ]
    text = "\n".join(lines) + "\n"
    print(text)
    publish("perf_sweep", text)

    data = {
        "mode": "smoke" if args.smoke else "full",
        "cells": len(cells),
        "horizon_s": horizon,
        "cpu_count": cpus,
        "workers_requested": args.jobs,
        "parallel_mode": parallel_stats["mode"],
        "serial_s": round(t_serial, 4),
        "parallel_s": round(t_parallel, 4),
        "speedup": round(speedup, 3),
        "results_equal": True,
        "cache": {
            "cold_executed": cold_stats["executed"],
            "warm_executed": warm_stats["executed"],
            "warm_hits": warm_stats["cache_hits"],
        },
        "gate": {
            "speedup": GATE_SPEEDUP,
            "min_cpus": GATE_MIN_CPUS,
            "enforced": gate_on,
        },
    }
    (REPO_ROOT / "BENCH_sweep.json").write_text(
        json.dumps(data, indent=2, sort_keys=True) + "\n"
    )

    if gate_on and speedup < GATE_SPEEDUP:
        print(f"FAIL: speedup {speedup:.2f}x below gate {GATE_SPEEDUP}x",
              file=sys.stderr)
        return 1
    return 0


def test_perf_sweep_smoke():
    """Pytest entry: tiny grid, equivalence + cache contract, no perf gate."""
    assert main(["--smoke"]) == 0


if __name__ == "__main__":
    sys.exit(main())
