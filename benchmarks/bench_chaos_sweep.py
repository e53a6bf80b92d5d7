"""Chaos smoke bench: the sweep layer survives injected faults.

Runs the real epoch-model grid (the same cells behind fig3/table4) twice:

1. **clean serial** — the reference result set, and a per-cell duration
   measurement used to calibrate a safe timeout;
2. **chaos parallel** — ``--jobs 2`` under a deterministic
   :class:`FaultPlan` injecting a worker crash (attempt 1), an
   artificial hang that must trip the per-cell timeout (attempt 1), and
   a *permanent* cell exception (every attempt), with the ``degrade``
   failure policy.

Asserted on every run:

- the chaos sweep completes (no exception escapes);
- its failure manifest lists **exactly** the permanently-faulted cell;
- every surviving cell's result is bit-identical to the clean serial
  run (crash/hang recovery replays the same derived seed, so retried
  cells cannot drift);
- the crash and the timeout recovery paths actually fired
  (``pool_breaks >= 1``, ``timeouts >= 1`` — checked only when a real
  process pool started; sandboxes without one still verify the serial
  degrade semantics).

Run standalone::

    PYTHONPATH=src python benchmarks/bench_chaos_sweep.py          # full
    PYTHONPATH=src python benchmarks/bench_chaos_sweep.py --smoke  # quick
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))
if str(REPO_ROOT / "benchmarks") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

from repro.runner import (
    Fault,
    FaultPlan,
    Job,
    RetryPolicy,
    SweepRunner,
    derive_seed,
)
from repro.sim.epoch import run_epoch_cell
from repro.workloads import SPEC2006_INT

from _common import publish

ROOT_SEED = 53

#: Deterministic fault targets (cell indices into the SPEC grid).
CRASH_CELL = 1
HANG_CELL = 3
ERROR_CELL = 5


def sweep_jobs(horizon_s: float) -> list[Job]:
    return [
        Job.of(
            run_epoch_cell,
            key=f"chaos/{name}",
            seed=derive_seed(ROOT_SEED, f"chaos/{name}"),
            benchmark=name,
            horizon_s=horizon_s,
        )
        for name in SPEC2006_INT
    ]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny horizon for CI")
    parser.add_argument("--jobs", type=int, default=2,
                        help="worker count for the chaos run (default 2)")
    parser.add_argument("--horizon", type=float, default=20.0,
                        help="simulated seconds per epoch cell")
    args = parser.parse_args(argv)

    horizon = 3.0 if args.smoke else args.horizon
    cells = sweep_jobs(horizon)
    assert len(cells) > max(CRASH_CELL, HANG_CELL, ERROR_CELL)

    clean_runner = SweepRunner(jobs=1, root_seed=ROOT_SEED, cache=None)
    clean = clean_runner.run(cells)
    clean_by_key = {r.key: r for r in clean}
    max_cell_s = max(r.duration_s for r in clean)
    # Calibrate the deadline off the measured cells so a slow CI host
    # cannot produce spurious timeouts, and keep the injected hang just
    # past it so the timeout path always fires without stalling exit.
    timeout_s = max(3.0, 6.0 * max_cell_s)
    hang_s = timeout_s + 2.0

    plan = FaultPlan.of(
        Fault("crash", CRASH_CELL, attempts=(1,)),
        Fault("hang", HANG_CELL, attempts=(1,), hang_s=hang_s),
        Fault("error", ERROR_CELL, attempts=None),
    )
    chaos_runner = SweepRunner(
        jobs=args.jobs, root_seed=ROOT_SEED, cache=None,
        policy="degrade",
        retry=RetryPolicy(max_attempts=3, backoff_base_s=0.05,
                          timeout_s=timeout_s),
        fault_plan=plan,
    )
    results = chaos_runner.run(cells)
    stats = chaos_runner.last_stats

    assert len(results) == len(cells), "chaos sweep must complete every cell"
    failed = [r for r in results if not r.ok]
    expected_failed = [cells[ERROR_CELL].key]
    assert [r.key for r in failed] == expected_failed, (
        f"failure manifest {stats['failed']} != injected {expected_failed}"
    )
    survivors = [r for r in results if r.ok]
    assert all(r == clean_by_key[r.key] for r in survivors), (
        "surviving chaos results must be bit-identical to the clean serial run"
    )
    pool_ran = stats["mode"] == "parallel"
    if pool_ran:
        assert stats["pool_breaks"] >= 1, "crash fault must break the pool"
        assert stats["timeouts"] >= 1, "hang fault must trip the timeout"
    assert stats["retries"] >= 2, "crash + hang cells must be retried"

    lines = [
        f"chaos grid: {len(cells)} epoch cells, horizon {horizon:.0f}s, "
        f"{args.jobs} workers ({stats['mode']})",
        f"faults: crash@{cells[CRASH_CELL].key} (attempt 1), "
        f"hang@{cells[HANG_CELL].key} ({hang_s:.1f}s vs {timeout_s:.1f}s "
        f"timeout), error@{cells[ERROR_CELL].key} (permanent)",
        f"recovery: retries={stats['retries']} timeouts={stats['timeouts']} "
        f"pool_breaks={stats['pool_breaks']}",
        f"failure manifest: {stats['failed']} (expected exactly the "
        "permanent fault)",
        f"survivors: {len(survivors)}/{len(cells)} bit-identical to clean "
        "serial run",
    ]
    text = "\n".join(lines) + "\n"
    print(text)
    publish("chaos_sweep", text, data={
        "mode": "smoke" if args.smoke else "full",
        "cells": len(cells),
        "horizon_s": horizon,
        "workers": args.jobs,
        "parallel_mode": stats["mode"],
        "timeout_s": round(timeout_s, 3),
        "retries": stats["retries"],
        "timeouts": stats["timeouts"],
        "pool_breaks": stats["pool_breaks"],
        "failed": stats["failed"],
        "survivors_equal": True,
    })
    return 0


def test_chaos_smoke():
    """Pytest entry: injected crash/hang/error sweep, degrade semantics."""
    assert main(["--smoke"]) == 0


if __name__ == "__main__":
    sys.exit(main())
