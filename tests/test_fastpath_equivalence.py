"""Property-style equivalence: ``Machine.run_fast`` vs ``Machine.run``.

The fast path (:mod:`repro.sim.fastpath`) promises bit-for-bit identity
with the reference interpreter.  These tests drive twin machines — one per
path — through the same op streams and compare everything observable:
the :class:`RunResult`, the final clock and overhead, every PMU counter,
sampler state, per-level cache statistics and residency, controller and
device statistics, open-row state, and bit flips.

Streams are seeded random blends of every op kind, plus the hammer kernel
(which reaches DRAM, activates rows, and flips bits), with and without
ANVIL armed (timers + PEBS sampling + selective refresh), plus the
stop-condition and TLB-remap corners, plus workload-generator streams and
the hook-driven slow path (a bare access hook, and the ``BackgroundMix``
co-runner injector that the heavy-load experiments attach).
"""

from __future__ import annotations

import random

import pytest

from repro.cache.cache import Cache
from repro.core import AnvilConfig
from repro.core.anvil import AnvilModule
from repro.dram.mapping import DramCoord
from repro.pmu import Event
from repro.presets import small_machine
from repro.sim.ops import CLFLUSH, COMPUTE, LOAD, MFENCE, PAIR_LOAD, STORE
from repro.workloads import (
    BackgroundMix,
    PointerChaseWorkload,
    RandomAccessWorkload,
    StreamWorkload,
)

PAGE = 4096
KB = 1024


def random_ops(seed: int, n: int, pages: int = 32) -> list:
    rng = random.Random(seed)
    ops = []
    for _ in range(n):
        r = rng.random()
        addr = rng.randrange(pages) * PAGE + rng.randrange(64) * 64
        if r < 0.45:
            ops.append((LOAD, addr))
        elif r < 0.6:
            ops.append((STORE, addr))
        elif r < 0.7:
            ops.append((CLFLUSH, addr))
        elif r < 0.78:
            other = rng.randrange(pages) * PAGE + rng.randrange(64) * 64
            ops.append((PAIR_LOAD, (addr, other)))
        elif r < 0.88:
            ops.append((COMPUTE, rng.randrange(1, 30)))
        else:
            ops.append((MFENCE, None))
    return ops


def hammer_ops(machine, n: int, think: int = 0) -> list:
    """LOAD A / LOAD B / CLFLUSH A / CLFLUSH B in one bank (aggressors),
    plus ``think`` compute cycles per round when nonzero."""
    vaddrs = (0x10000, 0x20000)
    for vaddr, row in zip(vaddrs, (1, 5)):
        coord = DramCoord(rank=0, bank=0, row=row, col=0)
        paddr = machine.memory.controller.mapping.encode(coord)
        machine.memory.vm.map_fixed(vaddr, paddr & ~(PAGE - 1))
    va, vb = vaddrs
    round_ops = [(LOAD, va), (LOAD, vb), (CLFLUSH, va), (CLFLUSH, vb)]
    if think:
        round_ops.append((COMPUTE, think))
    return round_ops * (n // len(round_ops))


def result_tuple(result):
    return (
        result.start_cycles, result.end_cycles, result.ops_executed,
        result.loads, result.stores, result.clflushes, result.dram_accesses,
        result.llc_misses, result.new_flips, result.overhead_cycles,
        result.stopped_by, result.extra,
    )


def state_snapshot(machine) -> dict:
    hierarchy = machine.memory.hierarchy
    controller = machine.memory.controller
    device = controller.device
    sampler = machine.pmu.sampler
    return {
        "cycles": machine.cycles,
        "overhead": machine.overhead_cycles,
        "counters": {e.name: machine.pmu.counter(e).read() for e in Event},
        "samples": None if sampler is None else sampler.total_samples,
        "caches": [
            (c.stats.hits, c.stats.misses, c.stats.evictions,
             c.stats.invalidations, c.resident_lines())
            for c in (hierarchy.l1, hierarchy.l2, hierarchy.llc)
        ],
        "controller": (controller.stats.accesses,
                       controller.stats.total_latency_cycles,
                       controller.stats.blocked_cycles),
        "device": (device.stats.accesses, device.stats.row_hits,
                   device.stats.activations, device.stats.refreshes_issued,
                   dict(device.stats.activations_per_bank)),
        "open_rows": list(device._open_rows),
        "flips": machine.memory.flip_count(),
    }


def build_machine(anvil: bool = False, threshold_min: int | None = None):
    kwargs = {} if threshold_min is None else {"threshold_min": threshold_min}
    machine = small_machine(**kwargs)
    if anvil:
        AnvilModule(
            machine,
            AnvilConfig(
                llc_miss_threshold=3_300,
                tc_ms=1.0,
                ts_ms=1.0,
                sampling_rate_hz=50_000,
                assumed_flip_accesses=30_000,
            ),
        ).install()
    return machine


def run_twins(build_ops, *, anvil=False, background=False, threshold_min=None,
              map_pages=0, max_cycles=None, until_misses=None, check_every=64):
    """Run the same stream through both paths; return (results, snapshots).

    ``background`` attaches the heavy-load co-runner mix to each twin and
    adds its injected-op count to the snapshot.
    """
    outcomes = []
    for fast in (False, True):
        machine = build_machine(anvil=anvil, threshold_min=threshold_min)
        mix = None
        if background:
            mix = BackgroundMix()
            mix.attach(machine)
        for p in range(map_pages):
            machine.memory.vm.map_fixed(p * PAGE, p * PAGE)
        ops = build_ops(machine) if callable(build_ops) else build_ops
        until = None
        if until_misses is not None:
            counter = machine.pmu.counter(Event.LONGEST_LAT_CACHE_MISS)
            until = lambda m, c=counter: c.read() >= until_misses
        runner = machine.run_fast if fast else machine.run
        result = runner(ops, max_cycles=max_cycles, until=until,
                        check_every=check_every)
        snapshot = state_snapshot(machine)
        if mix is not None:
            snapshot["injected_ops"] = mix.injected_ops
        outcomes.append((result_tuple(result), snapshot))
    return outcomes


def assert_equivalent(outcomes):
    (slow_result, slow_state), (fast_result, fast_state) = outcomes
    assert fast_result == slow_result
    assert fast_state == slow_state


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_random_stream_equivalent(seed):
    assert_equivalent(run_twins(random_ops(seed, 4000), map_pages=32))


@pytest.mark.parametrize("seed", [0, 1])
def test_random_stream_equivalent_with_anvil(seed):
    assert_equivalent(
        run_twins(random_ops(seed, 4000), anvil=True, map_pages=32)
    )


def test_max_cycles_stop_equivalent():
    outcomes = run_twins(random_ops(7, 4000), map_pages=32, max_cycles=90_000)
    assert outcomes[0][0][-2] == "max_cycles"  # stopped_by
    assert_equivalent(outcomes)


@pytest.mark.parametrize("check_every", [64, 7])
def test_until_predicate_equivalent(check_every):
    outcomes = run_twins(
        random_ops(8, 4000), map_pages=32,
        until_misses=150, check_every=check_every,
    )
    assert outcomes[0][0][-2] == "until"
    assert_equivalent(outcomes)


def test_hammer_with_flips_equivalent():
    outcomes = run_twins(
        lambda m: hammer_ops(m, 60_000), threshold_min=2_000
    )
    assert outcomes[0][0][8] > 0  # new_flips: the disturbance model fired
    assert_equivalent(outcomes)


def test_hammer_under_anvil_equivalent():
    outcomes = run_twins(
        lambda m: hammer_ops(m, 60_000), anvil=True, threshold_min=30_000
    )
    assert outcomes[0][0][9] > 0  # overhead_cycles: sampling engaged
    assert_equivalent(outcomes)


def test_tlb_remap_equivalent():
    """map_fixed over a live mapping must invalidate the fast path's TLB."""

    def build(machine):
        coord_a = DramCoord(rank=0, bank=0, row=3, col=0)
        coord_b = DramCoord(rank=0, bank=1, row=9, col=0)
        pa = machine.memory.controller.mapping.encode(coord_a) & ~(PAGE - 1)
        pb = machine.memory.controller.mapping.encode(coord_b) & ~(PAGE - 1)
        machine.memory.vm.map_fixed(0x40000, pa)
        warm = [(LOAD, 0x40000), (LOAD, 0x40040), (CLFLUSH, 0x40000)] * 50

        def remap(m, pb=pb):
            m.memory.vm.map_fixed(0x40000, pb)

        machine.schedule_at(machine.cycles + 20_000, remap)
        return warm * 10

    assert_equivalent(run_twins(build))


def test_index_memo_stays_bounded():
    machine = small_machine()
    llc = machine.memory.hierarchy.llc
    for i in range(Cache.INDEX_MEMO_MAX + 500):
        llc.set_index(i << 6)
    assert len(llc._index_memo) <= Cache.INDEX_MEMO_MAX


def test_flush_all_mid_run_equivalent():
    """A timer that flushes the hierarchy forces the fast path to rebind
    the per-level set lists and drop the index memo."""

    def build(machine):
        def flush(m):
            m.memory.hierarchy.flush_all()

        machine.schedule_at(machine.cycles + 50_000, flush)
        return random_ops(11, 3000)

    assert_equivalent(run_twins(build, map_pages=32))


def workload_ops(workload, machine):
    """Prepare ``workload`` on ``machine`` and return its infinite op
    stream (``max_cycles`` ends the run)."""
    workload.prepare(machine)
    return workload.ops()


def hooked_hammer_ops(machine):
    """Hammer with a no-op access hook registered, which keeps the fast
    path on its per-access slow path for the whole run."""
    machine.add_access_hook(lambda record, cycles: None)
    return hammer_ops(machine, 20_000, think=120)


#: Engine-comparison rows: (op-stream builder, ``run_twins`` options).
ENGINE_ROWS = {
    "stream-cache-resident": (
        lambda m: workload_ops(StreamWorkload(buffer_bytes=512 * KB, seed=1), m),
        {"max_cycles": 4_000_000},
    ),
    "stream-store-fraction": (
        lambda m: workload_ops(StreamWorkload(buffer_bytes=256 * KB,
                                              store_fraction=0.25, seed=4), m),
        {"max_cycles": 2_000_000},
    ),
    "random-access": (
        lambda m: workload_ops(RandomAccessWorkload(working_set_bytes=1024 * KB,
                                                    seed=2), m),
        {"max_cycles": 2_000_000},
    ),
    # 6M cycles spans more than two 1 ms (2.6M-cycle) stage-1 windows.
    "pointer-chase-anvil": (
        lambda m: workload_ops(PointerChaseWorkload(working_set_bytes=128 * KB,
                                                    seed=3), m),
        {"anvil": True, "max_cycles": 6_000_000},
    ),
    "hammer-think": (
        lambda m: hammer_ops(m, 40_000, think=120),
        {"threshold_min": 2_000},
    ),
    "hammer-access-hook": (hooked_hammer_ops, {"threshold_min": 2_000}),
    "hammer-background": (
        lambda m: hammer_ops(m, 40_000),
        {"background": True},
    ),
    "hammer-background-anvil": (
        lambda m: hammer_ops(m, 40_000),
        {"background": True, "anvil": True},
    ),
}


@pytest.mark.parametrize("row", sorted(ENGINE_ROWS))
def test_engine_rows_equivalent(row):
    build_ops, options = ENGINE_ROWS[row]
    assert_equivalent(run_twins(build_ops, **options))
