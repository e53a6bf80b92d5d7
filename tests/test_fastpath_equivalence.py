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
stop-condition and TLB-remap corners, plus a stream that raises, plus
workload-generator streams, plus a bare access hook that records the
retire times it is told, plus the ``BackgroundMix`` co-runner injector
that the heavy-load experiments attach (alone and beside PARA), plus the
CLFLUSH-free attack's ``PAIR_LOAD`` stream alone, under ANVIL, and with
co-runners attached or detached mid-run, plus the PARA, TRR and ARMOR
controller defenses on the LOAD/STORE hammer, the ``PAIR_LOAD`` stream
and a random stream.  The fast engine runs hooks, co-runners and
defenses inline, leaving its batches only for a first touch of a page,
a PEBS sample, a timer or the ``until`` predicate.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter

import pytest

from repro.attacks import ClflushFreeAttack
from repro.cache.cache import Cache
from repro.core import AnvilConfig
from repro.core.anvil import AnvilModule
from repro.defenses import Armor, Para, TargetedRowRefresh
from repro.dram.mapping import DramCoord
from repro.pmu import Event
from repro.presets import small_machine
from repro.sim.ops import CLFLUSH, COMPUTE, LOAD, MFENCE, PAIR_LOAD, STORE
from repro.units import MB
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


def state_snapshot(machine, mix=None) -> dict:
    """Everything observable on ``machine``, plus the injection schedule
    of its co-runner ``mix`` when given."""
    hierarchy = machine.memory.hierarchy
    controller = machine.memory.controller
    device = controller.device
    sampler = machine.pmu.sampler
    aux = machine.pmu.aux_sampler
    snapshot = {
        "cycles": machine.cycles,
        "overhead": machine.overhead_cycles,
        "counters": {e.name: machine.pmu.counter(e).read() for e in Event},
        "samples": None if sampler is None else sampler.total_samples,
        "aux_samples": (
            None if aux is None else (aux.total_samples, aux._next_sample_at)
        ),
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
                   device.stats.activations, device.stats.refreshes_issued,
                   dict(device.stats.activations_per_bank)),
        "open_rows": list(device._open_rows),
        "flips": machine.memory.flip_count(),
        "pair_lcg": machine._pair_lcg,
        # PARA/TRR trigger counts and ARMOR's absorbed accesses.
        "defenses": [
            (type(d).__name__, getattr(d, "triggered", None), getattr(d, "absorbed", None))
            for d in controller._observers
        ],
    }
    if mix is not None:
        snapshot["mix"] = (mix.injected_ops, mix._pending, mix._last_cycles)
    return snapshot


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


class RetireRecorder:
    """An access hook that is not a ``BackgroundMix``: it keeps each
    retire time that differs from the previous one (a repeated time is a
    no-op, as the hook contract asks)."""

    def __init__(self) -> None:
        self.times: list[int] = []

    def __call__(self, time_cycles, walk=None) -> None:
        if not self.times or self.times[-1] != time_cycles:
            self.times.append(time_cycles)


def run_twins(build_ops, *, anvil=False, background=False, record=False,
              threshold_min=None, map_pages=0, max_cycles=None, until_misses=None,
              check_every=64, detach_after=None, fallbacks=None):
    """Run the same stream through both paths; return (results, snapshots).

    ``background`` attaches the heavy-load co-runner mix to each twin and
    adds its injected-op count and schedule to the snapshot (``"mix"``);
    ``detach_after`` schedules a timer that detaches it that many cycles
    into the run.  ``record`` registers a :class:`RetireRecorder` on each
    twin and adds its times to the snapshot (``"retires"``).  The fast
    twin's ``Machine.fast_fallbacks`` are added to ``fallbacks`` when
    given.
    """
    outcomes = []
    for fast in (False, True):
        machine = build_machine(anvil=anvil, threshold_min=threshold_min)
        mix = None
        if background:
            mix = BackgroundMix()
            mix.attach(machine)
        recorder = RetireRecorder()
        if record:
            machine.add_access_hook(recorder)
        for p in range(map_pages):
            machine.memory.vm.map_fixed(p * PAGE, p * PAGE)
        ops = build_ops(machine) if callable(build_ops) else build_ops
        if detach_after is not None:
            machine.schedule_in(detach_after, lambda m, mix=mix: mix.detach())
        until = None
        if until_misses is not None:
            counter = machine.pmu.counter(Event.LONGEST_LAT_CACHE_MISS)
            until = lambda m, c=counter: c.read() >= until_misses
        runner = machine.run_fast if fast else machine.run
        result = runner(ops, max_cycles=max_cycles, until=until,
                        check_every=check_every)
        snapshot = state_snapshot(machine, mix)
        if record:
            snapshot["retires"] = recorder.times
        outcomes.append((result_tuple(result), snapshot))
        if fast and fallbacks is not None:
            fallbacks.update(machine.fast_fallbacks)
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


@pytest.mark.parametrize("check_every", [0, -1])
@pytest.mark.parametrize("engine", ["run", "run_fast"])
def test_check_every_below_one_rejected(engine, check_every):
    """Both engines refuse a non-positive predicate period before
    executing anything (else ``until`` would silently never run)."""
    machine = small_machine()
    pulled = []

    def ops():
        for _ in range(1_000):
            pulled.append(1)
            yield (COMPUTE, 10)

    with pytest.raises(ValueError, match="check_every"):
        getattr(machine, engine)(ops(), until=lambda m: False,
                                 check_every=check_every)
    assert machine.cycles == 0
    assert pulled == []


def raising_ops(n_pairs: int = 500):
    """LOAD/CLFLUSH pairs over the first 64 pages, then a RuntimeError."""
    for i in range(n_pairs):
        vaddr = (i % 64) * PAGE + (i // 64) * 64
        yield (LOAD, vaddr)
        yield (CLFLUSH, vaddr)
    raise RuntimeError("op stream failed")


def raise_in_timer(machine):
    """A timer 20,000 cycles in that takes time, then raises."""

    def fail(m):
        m.consume(1_000)
        raise RuntimeError("timer callback failed")

    machine.schedule_in(20_000, fail)


@pytest.mark.parametrize("where", ["stream", "timer"])
def test_raise_leaves_equal_state(where):
    """An exception from the op stream or a callback escapes both engines
    with the same machine state: the fast engine publishes its deferred
    counts, statistics and clock on the way out, and keeps the clock an
    excursion moved before it raised."""
    snapshots = []
    for fast in (False, True):
        machine = build_machine()
        for p in range(64):
            machine.memory.vm.map_fixed(p * PAGE, p * PAGE)
            machine.memory.vm.translate(p * PAGE)  # no first-touch excursions
        if where == "timer":
            raise_in_timer(machine)
        runner = machine.run_fast if fast else machine.run
        with pytest.raises(RuntimeError, match=where):
            runner(raising_ops())
        snapshots.append(state_snapshot(machine))
    assert snapshots[0]["counters"]["LONGEST_LAT_CACHE_MISS"] > 0
    assert snapshots[1] == snapshots[0]


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


def cache_resident_ops(machine, n: int = 30_000) -> list:
    """Loads and stores over 8 KB that stay in L1 after the first pass,
    so DRAM traffic is nearly all the co-runners'."""
    for p in range(2):
        machine.memory.vm.map_fixed(p * PAGE, p * PAGE)
    rng = random.Random(5)
    return [
        (STORE if rng.random() < 0.2 else LOAD, rng.randrange(2 * PAGE // 64) * 64)
        for _ in range(n)
    ]


def with_setup(setup, build_ops):
    """Op-stream factory that runs ``setup(machine)`` first."""

    def build(machine):
        setup(machine)
        return build_ops(machine)

    return build


def clflush_free_ops(defense=None):
    """Op-stream factory for the CLFLUSH-free attack's endless
    ``PAIR_LOAD`` stream, with ``defense()`` installed first when given
    (rows bound it with ``max_cycles``)."""

    def build(machine):
        if defense is not None:
            defense().install(machine)
        attack = ClflushFreeAttack(buffer_bytes=16 * MB)
        attack.prepare(machine)
        return attack.ops()

    return build


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
    # A lone recording hook: each retire's time, told by both engines.
    "hammer-think-hook": (
        lambda m: hammer_ops(m, 20_000, think=120),
        {"threshold_min": 2_000, "record": True},
    ),
    "hammer-background": (
        lambda m: hammer_ops(m, 40_000),
        {"background": True},
    ),
    "hammer-background-anvil": (
        lambda m: hammer_ops(m, 40_000),
        {"background": True, "anvil": True},
    ),
    # Every op kind between co-runner injections: only LOAD/STORE and
    # PAIR_LOAD retires inject; the time of the ops between them is
    # injected at the next retire.
    "random-background": (
        lambda m: random_ops(12, 20_000),
        {"map_pages": 32, "background": True},
    ),
    # The foreground stays in L1, so PARA's observer sees mostly injected
    # DRAM accesses, each run inside the inline co-runner walk.
    "cache-resident-background-para": (
        with_setup(lambda m: Para(probability=0.05).install(m),
                   cache_resident_ops),
        {"background": True},
    ),
    # ~0.8 ms of hammering: the victim flips at threshold 2,000.
    "clflush-free": (
        clflush_free_ops(), {"threshold_min": 2_000, "max_cycles": 2_000_000},
    ),
    # 6M cycles: a 1 ms stage-1 trigger, then a sampled stage-2 window.
    "clflush-free-anvil": (
        clflush_free_ops(),
        {"anvil": True, "threshold_min": 30_000, "max_cycles": 6_000_000},
    ),
    # One hook call per deferred pair; the reference's second call repeats
    # the first's time.
    "clflush-free-hook": (
        clflush_free_ops(),
        {"threshold_min": 2_000, "max_cycles": 2_000_000, "record": True},
    ),
    "clflush-free-para": (
        clflush_free_ops(lambda: Para(probability=0.01)),
        {"threshold_min": 2_000, "max_cycles": 2_000_000},
    ),
    "clflush-free-trr": (
        clflush_free_ops(lambda: TargetedRowRefresh(activation_threshold=500)),
        {"threshold_min": 2_000, "max_cycles": 2_000_000},
    ),
    "clflush-free-armor": (
        clflush_free_ops(lambda: Armor(hot_threshold=500)),
        {"threshold_min": 2_000, "max_cycles": 2_000_000},
    ),
    # The controller defenses on the LOAD/STORE arm.
    "hammer-para": (
        with_setup(lambda m: Para(probability=0.01).install(m),
                   lambda m: hammer_ops(m, 40_000)),
        {"threshold_min": 2_000},
    ),
    "hammer-trr": (
        with_setup(lambda m: TargetedRowRefresh(activation_threshold=500).install(m),
                   lambda m: hammer_ops(m, 40_000)),
        {"threshold_min": 2_000},
    ),
    "hammer-armor": (
        with_setup(lambda m: Armor(hot_threshold=500).install(m),
                   lambda m: hammer_ops(m, 40_000)),
        {"threshold_min": 2_000},
    ),
    # The 40K-op hammer takes ~3.6M cycles: the timer installs PARA
    # halfway, into the list the running batch already checks.
    "hammer-para-timer": (
        with_setup(
            lambda m: m.schedule_in(1_800_000, Para(probability=0.01).install),
            lambda m: hammer_ops(m, 40_000),
        ),
        {"threshold_min": 2_000},
    ),
    # STOREs, PAIR_LOADs and the refetches CLFLUSHes cause reach DRAM
    # under a row filter.
    "random-armor": (
        with_setup(lambda m: Armor(hot_threshold=8).install(m),
                   lambda m: random_ops(13, 8_000)),
        {"map_pages": 32},
    ),
    "clflush-free-background": (
        clflush_free_ops(), {"background": True, "max_cycles": 2_000_000},
    ),
    # The detach timer ends inline injection halfway through; batching
    # goes on without it.
    "clflush-free-background-detach": (
        clflush_free_ops(),
        {"background": True, "detach_after": 1_000_000, "max_cycles": 2_000_000},
    ),
}

#: Fast-path fallback reasons a row must exercise, so each row provably
#: covers the engine path it is named for.
ROW_PATHS = {
    "hammer-background-anvil": ("pebs",),
    "clflush-free-anvil": ("pebs",),
    "clflush-free-background-detach": ("timer",),
    "hammer-para-timer": ("timer",),
}

#: Rows under a PARA, TRR or ARMOR controller defense: the fast engine
#: runs the defense inline, leaving its batches only on a first touch of
#: a page, a timer or the ``until`` predicate, and the defense must have
#: acted (refreshed a victim, or absorbed an access).
DEFENSE_ROWS = {
    "hammer-para",
    "hammer-trr",
    "hammer-armor",
    "hammer-para-timer",
    "random-armor",
    "cache-resident-background-para",
    "clflush-free-para",
    "clflush-free-trr",
    "clflush-free-armor",
}

#: Co-runner rows: the mix must have injected ops.
INLINE_ROWS = {
    "hammer-background",
    "hammer-background-anvil",
    "random-background",
    "cache-resident-background-para",
    "clflush-free-background",
    "clflush-free-background-detach",
}

#: Rows whose co-runner ops the aux-core sampler must have sampled.
AUX_SAMPLE_ROWS = {"hammer-background-anvil"}

#: Rows that must reach the disturbance model.
FLIP_ROWS = {"hammer-think", "hammer-think-hook", "clflush-free"}

#: Fallback reasons any row may show: an access hook, a co-runner or a
#: defense never makes the fast engine leave its batch.
BATCH_EXITS = {"tlb_fill", "pebs", "timer", "until"}


@pytest.mark.parametrize("row", sorted(ENGINE_ROWS))
def test_engine_rows_equivalent(row):
    build_ops, options = ENGINE_ROWS[row]
    fallbacks = Counter()
    outcomes = run_twins(build_ops, fallbacks=fallbacks, **options)
    assert_equivalent(outcomes)
    for reason in ROW_PATHS.get(row, ()):
        assert fallbacks[reason] > 0, (reason, fallbacks)
    assert set(+fallbacks) <= BATCH_EXITS, fallbacks
    state = outcomes[0][1]
    if options.get("record"):
        assert len(state["retires"]) > 0
    if row in INLINE_ROWS:
        assert state["mix"][0] > 0  # injected_ops
    if row in AUX_SAMPLE_ROWS:
        assert state["aux_samples"][0] > 0
    if row in DEFENSE_ROWS:
        assert set(+fallbacks) <= {"tlb_fill", "timer", "until"}, fallbacks
        absorbed = sum(entry[2] or 0 for entry in state["defenses"])
        assert state["controller"][3] > 0 or absorbed > 0  # observer_refreshes
    if row in FLIP_ROWS:
        assert outcomes[0][0][8] > 0  # new_flips


def test_fallback_telemetry():
    """``fast_fallbacks`` says why the fast engine left its batches: an
    idle CLFLUSH-free run never falls back on its op kind, and with
    co-runners attached it leaves its batches only for a first touch of a
    page or a timer (the co-runners are injected inline)."""
    machine = small_machine()
    attack = ClflushFreeAttack(buffer_bytes=16 * MB)
    attack.prepare(machine)
    result = machine.run_fast(itertools.islice(attack.ops(), 5_000))
    assert result.ops_executed == 5_000
    assert machine.fast_fallbacks["op_kind"] == 0

    machine = small_machine()
    mix = BackgroundMix()
    mix.attach(machine)
    attack = ClflushFreeAttack(buffer_bytes=16 * MB)
    attack.prepare(machine)
    result = machine.run_fast(itertools.islice(attack.ops(), 3_000))
    assert result.ops_executed == 3_000
    assert set(machine.fast_fallbacks) <= {"tlb_fill", "timer"}
    assert mix.injected_ops > 0
