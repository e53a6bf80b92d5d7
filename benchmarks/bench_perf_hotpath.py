"""Hot-path engine microbenchmark: ``Machine.run`` vs ``Machine.run_fast``.

Measures simulated-ops/sec on seven workload shapes and proves, on every
measured run, that the fast path is *bit-for-bit equivalent* to the
reference interpreter (identical :class:`RunResult`, final clock, PMU
counters, and cache/controller/device statistics on twin machines fed the
same op stream):

- **hammer**: the paper's rowhammer kernel — LOAD A / LOAD B / CLFLUSH A /
  CLFLUSH B with A and B in different banks, so every load is an LLC miss
  and a row-buffer hit.  This is the loop ANVIL must watch millions of
  times per experiment, and the fast path's headline target (>= 3x).
- **hammer_same_bank**: the true aggressor pattern (A, B in one bank), a
  row-conflict + disturbance-model stress; reported for transparency —
  the activation physics dominate, so the speedup is smaller.
- **stream**: a stride-64 streaming read over a working set larger than
  the LLC (mostly misses, no flushes).
- **mixed**: a seeded random load/store/flush/compute blend that lives
  mostly in the cache hierarchy.
- **clflush_free**: the CLFLUSH-free attack's stream (paper Section 2.2):
  ``PAIR_LOAD`` ops steering the LLC's Bit-PLRU state through two
  eviction sets, so every load misses L1 and L2 and one pair in six
  reaches DRAM.  Gated at >= 1.5x; the cache walk dominates it on both
  engines (three set ``touch`` calls per load, two of them evictions).
- **hammer_background**: hammer_same_bank with the heavy-load co-runners
  (``BackgroundMix(seed=1)``, paper Section 4.2) attached, so every
  foreground load is followed by injected co-runner accesses, which the
  fast path walks inline.  Gated at >= 1.3x; the co-runners' own op
  generators and the shared cache-miss model take most of the time on
  both engines.  Its equivalence probe includes the injected-op count.
- **hammer_para**: hammer_same_bank under the PARA controller defense
  (``Para(probability=0.002)``, paper Section 5.2.2): every activation
  calls PARA's observer, and about one in 500 refreshes the activated
  row's two neighbours.  The fast path runs the defense inside its
  batch.  Gated at >= 1.8x.

Results are published under ``benchmarks/results/perf_hotpath.{txt,json}``
and the machine-readable summary is also written to ``BENCH_hotpath.json``
at the repository root.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_perf_hotpath.py          # full
    PYTHONPATH=src python benchmarks/bench_perf_hotpath.py --smoke  # quick

The full run exits non-zero if a gated speedup drops below its gate
(``GATES``); ``--smoke`` (and ``--no-gate``) skip the gates but still
assert equivalence.
"""

from __future__ import annotations

import argparse
import itertools
import json
import random
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))
if str(REPO_ROOT / "benchmarks") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

from repro.attacks import ClflushFreeAttack
from repro.defenses import Para
from repro.dram.mapping import DramCoord
from repro.presets import small_machine
from repro.sim.ops import CLFLUSH, COMPUTE, LOAD, STORE
from repro.units import MB
from repro.workloads import BackgroundMix

from _common import publish

#: Required run_fast/run speedups per gated workload.  hammer_same_bank
#: exercises the row-conflict + disturbance path, made allocation-free by
#: DramDevice.access_miss_fast; clflush_free the inline PAIR_LOAD arm;
#: hammer_background the inline co-runner injection; hammer_para the
#: inline controller defense.
GATES = {
    "hammer": 3.0,
    "hammer_same_bank": 2.5,
    "clflush_free": 1.5,
    "hammer_background": 1.3,
    "hammer_para": 1.8,
}
PAGE = 4096


# -- workload builders (must be deterministic per machine) --------------------


def hammer_ops(machine, n, same_bank=False):
    """The paper's hammer kernel: two aggressors, flush between rounds."""
    banks = (0, 0) if same_bank else (0, 1)
    vaddrs = (0x10000, 0x20000)
    for vaddr, bank, row in zip(vaddrs, banks, (1, 5)):
        coord = DramCoord(rank=0, bank=bank, row=row, col=0)
        paddr = machine.memory.controller.mapping.encode(coord)
        machine.memory.vm.map_fixed(vaddr, paddr & ~(PAGE - 1))
    va, vb = vaddrs
    ops = []
    for _ in range(n // 4):
        ops += [(LOAD, va), (LOAD, vb), (CLFLUSH, va), (CLFLUSH, vb)]
    return ops


def stream_ops(machine, n, pages=64):
    for p in range(pages):
        machine.memory.vm.map_fixed(p * PAGE, p * PAGE)
    span = pages * PAGE
    ops = []
    addr = 0
    for _ in range(n):
        ops.append((LOAD, addr))
        addr = (addr + 64) % span
    return ops


def mixed_ops(machine, n, pages=64, seed=0):
    rng = random.Random(seed)
    for p in range(pages):
        machine.memory.vm.map_fixed(p * PAGE, p * PAGE)
    ops = []
    for _ in range(n):
        r = rng.random()
        addr = rng.randrange(pages) * PAGE + rng.randrange(64) * 64
        if r < 0.55:
            ops.append((LOAD, addr))
        elif r < 0.75:
            ops.append((STORE, addr))
        elif r < 0.85:
            ops.append((CLFLUSH, addr))
        else:
            ops.append((COMPUTE, rng.randrange(1, 20)))
    return ops


def clflush_free_ops(machine, n):
    """The first ``n`` ops of the CLFLUSH-free attack (all PAIR_LOAD)."""
    attack = ClflushFreeAttack(buffer_bytes=16 * MB)
    attack.prepare(machine)
    return list(itertools.islice(attack.ops(), n))


def hammer_para_ops(machine, n):
    """hammer_same_bank with PARA installed in the memory controller."""
    Para(probability=0.002).install(machine)
    return hammer_ops(machine, n, same_bank=True)


WORKLOADS = {
    "hammer": lambda m, n: hammer_ops(m, n),
    "hammer_same_bank": lambda m, n: hammer_ops(m, n, same_bank=True),
    "stream": stream_ops,
    "mixed": mixed_ops,
    "clflush_free": clflush_free_ops,
    "hammer_background": lambda m, n: hammer_ops(m, n, same_bank=True),
    "hammer_para": hammer_para_ops,
}

#: Workloads run with the heavy-load co-runners attached: the mix seed.
CO_RUNNER_SEEDS = {"hammer_background": 1}


# -- equivalence probe --------------------------------------------------------


def result_tuple(result):
    return (
        result.start_cycles, result.end_cycles, result.ops_executed,
        result.loads, result.stores, result.clflushes, result.dram_accesses,
        result.llc_misses, result.new_flips, result.overhead_cycles,
        result.stopped_by,
    )


def state_snapshot(machine):
    from repro.pmu import Event

    hierarchy = machine.memory.hierarchy
    controller = machine.memory.controller
    device = controller.device
    return {
        "cycles": machine.cycles,
        "counters": {e.name: machine.pmu.counter(e).read() for e in Event},
        "caches": [
            (c.stats.hits, c.stats.misses, c.stats.evictions,
             c.stats.invalidations, c.resident_lines())
            for c in (hierarchy.l1, hierarchy.l2, hierarchy.llc)
        ],
        "controller": (controller.stats.accesses,
                       controller.stats.total_latency_cycles,
                       controller.stats.blocked_cycles,
                       controller.stats.observer_refreshes),
        "device": (device.stats.accesses, device.stats.row_hits,
                   device.stats.activations, device.stats.refreshes_issued),
        "open_rows": list(device._open_rows),
        "flips": machine.memory.flip_count(),
    }


# -- measurement --------------------------------------------------------------


def run_once(name, builder, n, fast):
    machine = small_machine(threshold_min=30_000)
    mix = None
    if name in CO_RUNNER_SEEDS:
        mix = BackgroundMix(seed=CO_RUNNER_SEEDS[name])
        mix.attach(machine)
    ops = builder(machine, n)
    runner = machine.run_fast if fast else machine.run
    t0 = time.perf_counter()
    result = runner(ops)
    elapsed = time.perf_counter() - t0
    state = state_snapshot(machine)
    if mix is not None:
        state["injected_ops"] = mix.injected_ops
    return elapsed, result_tuple(result), state


def measure(name, builder, n, reps):
    slow_times, fast_times = [], []
    slow_probe = fast_probe = None
    for _ in range(reps):
        elapsed, result, state = run_once(name, builder, n, fast=False)
        slow_times.append(elapsed)
        slow_probe = (result, state)
        elapsed, result, state = run_once(name, builder, n, fast=True)
        fast_times.append(elapsed)
        fast_probe = (result, state)
    if slow_probe != fast_probe:
        raise AssertionError(
            f"{name}: run_fast diverged from run\n"
            f"  slow: {slow_probe}\n  fast: {fast_probe}"
        )
    slow_best, fast_best = min(slow_times), min(fast_times)
    return {
        "ops": n,
        "reps": reps,
        "slow_ops_per_sec": n / slow_best,
        "fast_ops_per_sec": n / fast_best,
        "speedup": slow_best / fast_best,
        "llc_misses": slow_probe[0][7],
        "equivalent": True,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="tiny op counts, 1 rep, no speedup gate (CI)")
    parser.add_argument("--reps", type=int, default=5,
                        help="best-of-N repetitions (default 5)")
    parser.add_argument("--ops", type=int, default=60_000,
                        help="ops per workload per rep (default 60000)")
    parser.add_argument("--no-gate", action="store_true",
                        help="report but do not enforce the speedup gates")
    args = parser.parse_args(argv)
    if args.reps < 1:
        parser.error("--reps must be >= 1")
    if args.ops < 4:
        parser.error("--ops must be >= 4 (one hammer round)")

    n = 4_000 if args.smoke else args.ops
    reps = 1 if args.smoke else args.reps

    results = {}
    for name, builder in WORKLOADS.items():
        results[name] = measure(name, builder, n, reps)

    lines = [
        "Hot-path engine: simulated-ops/sec, Machine.run vs Machine.run_fast",
        f"(best of {reps}, {n} ops per workload; equivalence asserted on every run)",
        "",
        f"{'workload':18s} {'run':>12s} {'run_fast':>12s} {'speedup':>9s}",
    ]
    for name, r in results.items():
        lines.append(
            f"{name:18s} {r['slow_ops_per_sec'] / 1e3:9.1f}k/s "
            f"{r['fast_ops_per_sec'] / 1e3:10.1f}k/s "
            f"{r['speedup']:8.2f}x"
        )
    gate_on = not (args.smoke or args.no_gate)
    lines.append("")
    for workload, minimum in GATES.items():
        lines.append(
            f"{workload} gate (>= {minimum:.1f}x): "
            f"{results[workload]['speedup']:.2f}x "
            + ("ENFORCED" if gate_on else "not enforced (smoke/no-gate)")
        )
    text = "\n".join(lines)

    data = {
        "bench": "perf_hotpath",
        "mode": "smoke" if args.smoke else "full",
        "gate": {"workloads": dict(GATES), "enforced": gate_on},
        "workloads": results,
    }
    publish("perf_hotpath", text, data=data)
    (REPO_ROOT / "BENCH_hotpath.json").write_text(
        json.dumps(data, indent=2, sort_keys=True) + "\n"
    )

    failed = False
    if gate_on:
        for workload, minimum in GATES.items():
            speedup = results[workload]["speedup"]
            if speedup < minimum:
                print(
                    f"FAIL: {workload} speedup {speedup:.2f}x < {minimum}x",
                    file=sys.stderr,
                )
                failed = True
    return 1 if failed else 0


def test_perf_hotpath_smoke():
    """Pytest entry: smoke-size run, equivalence asserted, no perf gate."""
    assert main(["--smoke"]) == 0


if __name__ == "__main__":
    sys.exit(main())
