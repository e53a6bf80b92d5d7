"""Machine tests: op execution, timers, pairing, run control."""

from __future__ import annotations

import pytest

from repro.pmu import Event
from repro.sim import clflush, compute, load, mfence, pair_load, store


def mapped(machine, length=8192):
    return machine.memory.vm.mmap(length)


def test_load_advances_time(machine):
    base = mapped(machine)
    before = machine.cycles
    record = machine.execute(load(base))
    assert machine.cycles == before + record.latency_cycles


def test_compute_advances_exactly(machine):
    before = machine.cycles
    machine.execute(compute(123))
    assert machine.cycles == before + 123


def test_mfence_cost(machine):
    before = machine.cycles
    machine.execute(mfence())
    assert machine.cycles - before == machine.memory.config.hierarchy.mfence_cycles


def test_clflush_then_reload_misses(machine):
    base = mapped(machine)
    machine.execute(load(base))
    machine.execute(clflush(base))
    assert machine.execute(load(base)).level == "DRAM"


def test_store_counts_in_pmu(machine):
    base = mapped(machine)
    machine.execute(store(base))
    assert machine.pmu.read(Event.MEM_UOPS_RETIRED_ALL_STORES) == 1


def test_pair_load_charges_max_latency(machine):
    a = mapped(machine)
    b = mapped(machine)
    machine.execute(load(a))  # a now cached
    before = machine.cycles
    rec_pair = machine.execute(pair_load(a, b))
    elapsed = machine.cycles - before
    latencies = sorted(r.latency_cycles for r in rec_pair)
    assert elapsed == latencies[-1]
    assert elapsed < sum(latencies)


def test_pair_load_updates_pmu_for_both(machine):
    a, b = mapped(machine), mapped(machine)
    machine.execute(pair_load(a, b))
    assert machine.pmu.read(Event.MEM_UOPS_RETIRED_ALL_LOADS) == 2


def test_unknown_op_rejected(machine):
    with pytest.raises(ValueError):
        machine.execute(("Z", 0))


# -- timers -----------------------------------------------------------------------


def test_timer_fires_at_deadline(machine):
    fired = []
    machine.schedule_in(100, lambda m: fired.append(m.cycles))
    machine.execute(compute(99))
    assert fired == []
    machine.execute(compute(1))
    assert fired == [100]


def test_timers_fire_in_order(machine):
    order = []
    machine.schedule_in(200, lambda m: order.append("late"))
    machine.schedule_in(100, lambda m: order.append("early"))
    machine.execute(compute(500))
    assert order == ["early", "late"]


def test_timer_can_reschedule_itself(machine):
    ticks = []

    def tick(m):
        ticks.append(m.cycles)
        if len(ticks) < 3:
            m.schedule_in(100, tick)

    machine.schedule_in(100, tick)
    for _ in range(5):
        machine.execute(compute(100))
    assert len(ticks) == 3


def test_cancel_timers(machine):
    fired = []
    machine.schedule_in(10, lambda m: fired.append(1))
    machine.cancel_timers()
    machine.execute(compute(100))
    assert fired == []


def test_schedule_in_ms(machine):
    fired = []
    machine.schedule_in_ms(0.001, lambda m: fired.append(m.cycles))
    machine.execute(compute(machine.clock.cycles_from_ms(0.002)))
    assert fired


# -- run loop -----------------------------------------------------------------------


def test_run_exhausts_finite_stream(machine):
    base = mapped(machine)
    result = machine.run([load(base), load(base), compute(5)])
    assert result.ops_executed == 3
    assert result.loads == 2
    assert result.stopped_by == "exhausted"


def test_run_stops_at_max_cycles(machine):
    def forever():
        while True:
            yield compute(1000)

    result = machine.run(forever(), max_cycles=50_000)
    assert result.stopped_by == "max_cycles"
    assert result.cycles >= 50_000


def test_run_until_condition(machine):
    def forever():
        while True:
            yield compute(10)

    result = machine.run(forever(), until=lambda m: m.cycles >= 1000, check_every=1)
    assert result.stopped_by == "until"


def test_run_counts_misses_and_dram(machine):
    base = mapped(machine, 64 * 1024)
    ops = [load(base + i * 64) for i in range(100)]
    result = machine.run(ops)
    assert result.llc_misses == 100
    assert result.dram_accesses == 100


def test_overhead_accounting(machine):
    machine.consume(500, overhead=True)
    machine.consume(500, overhead=False)
    assert machine.overhead_cycles == 500


def test_access_hooks(machine):
    """A hook is told the clock after each retiring load or store: a
    PAIR_LOAD's two retires repeat one time, other ops retire nothing, and
    a removed hook hears nothing more."""
    base = mapped(machine)
    seen = []
    hook = seen.append
    machine.add_access_hook(hook)
    machine.execute(load(base))
    after_load = machine.cycles
    machine.execute(compute(10))
    machine.execute(pair_load(base, base + 64))
    after_pair = machine.cycles
    machine.remove_access_hook(hook)
    machine.execute(load(base))
    assert seen == [after_load, after_pair, after_pair]
