"""ANVIL detector state-machine tests (stage gating, facility choice,
refresher behaviour) on synthetic machines."""

from __future__ import annotations

from repro.core import AnvilConfig, AnvilModule, SelectiveRefresher
from repro.core.sampler import DetectedAggressor
from repro.presets import small_machine
from repro.sim import compute, load, store
from repro.units import MB


def idle_config(**kwargs) -> AnvilConfig:
    defaults = dict(
        llc_miss_threshold=3_300, tc_ms=1.0, ts_ms=1.0,
        sampling_rate_hz=50_000, assumed_flip_accesses=30_000,
    )
    defaults.update(kwargs)
    return AnvilConfig(**defaults)


def run_for_ms(machine, ops_fn, ms):
    def stream():
        while True:
            yield ops_fn()

    machine.run(stream(), max_cycles=machine.clock.cycles_from_ms(ms))


# -- stage gating -------------------------------------------------------------------


def test_idle_machine_never_enters_stage2(machine):
    anvil = AnvilModule(machine, idle_config())
    anvil.install()
    run_for_ms(machine, lambda: compute(100), 10)
    assert anvil.stats.stage1_windows >= 8
    assert anvil.stats.stage1_triggers == 0
    assert anvil.stats.stage2_windows == 0
    assert anvil.stats.detections == []


def test_low_miss_workload_does_not_trigger(machine):
    base = machine.memory.vm.mmap(64 * 1024)
    anvil = AnvilModule(machine, idle_config())
    anvil.install()
    counter = [0]

    def op():
        counter[0] += 1
        return load(base + (counter[0] % 1024) * 64)  # 64 KB: fits in caches

    run_for_ms(machine, op, 10)
    assert anvil.stats.stage1_triggers == 0


def test_miss_storm_triggers_stage2(machine):
    base = machine.memory.vm.mmap(32 * MB)
    anvil = AnvilModule(machine, idle_config())
    anvil.install()
    counter = [0]

    def op():
        counter[0] += 1
        return load(base + (counter[0] * 64) % (32 * MB))  # streaming misses

    run_for_ms(machine, op, 10)
    assert anvil.stats.stage1_triggers > 0
    assert anvil.stats.stage2_windows > 0


def test_streaming_misses_produce_no_detection(machine):
    """High miss rate with sequentially advancing rows: stage 2 runs but
    locality analysis must not flag an attack."""
    base = machine.memory.vm.mmap(32 * MB)
    anvil = AnvilModule(machine, idle_config())
    anvil.install()
    counter = [0]

    def op():
        counter[0] += 1
        return load(base + (counter[0] * 64) % (32 * MB))

    run_for_ms(machine, op, 20)
    assert anvil.stats.stage2_windows > 0
    assert anvil.stats.detection_count == 0


def test_sampling_disabled_between_windows(machine):
    base = machine.memory.vm.mmap(32 * MB)
    anvil = AnvilModule(machine, idle_config())
    anvil.install()
    counter = [0]

    def op():
        counter[0] += 1
        return load(base + (counter[0] * 64) % (32 * MB))

    run_for_ms(machine, op, 10)
    anvil.uninstall()
    assert machine.pmi_cost_cycles == 0
    sampler = machine.pmu.sampler
    assert sampler is None or not sampler.enabled


def test_uninstall_stops_windows(machine):
    anvil = AnvilModule(machine, idle_config())
    anvil.install()
    run_for_ms(machine, lambda: compute(100), 5)
    windows_at_uninstall = anvil.stats.stage1_windows
    anvil.uninstall()
    run_for_ms(machine, lambda: compute(100), 5)
    assert anvil.stats.stage1_windows == windows_at_uninstall


def test_store_hammer_selects_store_facility(machine):
    """A store-only miss storm must flip the detector to the Precise
    Store facility (Section 3.3's <10% load rule)."""
    base = machine.memory.vm.mmap(32 * MB)
    anvil = AnvilModule(machine, idle_config())
    anvil.install()
    counter = [0]

    def op():
        counter[0] += 1
        return store(base + (counter[0] * 64) % (32 * MB))

    run_for_ms(machine, op, 10)
    assert anvil.stats.stage2_windows > 0
    sampler = machine.pmu.sampler
    assert sampler is not None
    assert sampler.config.sample_stores and not sampler.config.sample_loads
    assert anvil.stats.samples_collected > 0


def test_overhead_charged(machine):
    base = machine.memory.vm.mmap(32 * MB)
    anvil = AnvilModule(machine, idle_config())
    anvil.install()
    counter = [0]

    def op():
        counter[0] += 1
        return load(base + (counter[0] * 64) % (32 * MB))

    run_for_ms(machine, op, 10)
    assert machine.overhead_cycles > 0
    report = anvil.report()
    assert report.overhead_cycles == machine.overhead_cycles


# -- refresher ---------------------------------------------------------------------


def agg(row, bank=0, rank=0):
    return DetectedAggressor(
        row_key=(rank, bank, row), sample_count=10,
        estimated_accesses=50_000.0, bank_other_samples=10,
    )


def test_victims_of_radius_one(machine):
    refresher = SelectiveRefresher(AnvilConfig.baseline())
    victims = refresher.victims_of(machine, [agg(100)])
    assert victims == [(0, 0, 99), (0, 0, 101)]


def test_victims_of_dedup_and_excludes_aggressors(machine):
    """Double-sided: rows 99 and 101 flagged; row 100 (between them) is
    the victim and must appear once; 99/101 are not their own victims."""
    refresher = SelectiveRefresher(AnvilConfig.baseline())
    victims = refresher.victims_of(machine, [agg(99), agg(101)])
    assert victims.count((0, 0, 100)) == 1
    assert (0, 0, 99) not in victims and (0, 0, 101) not in victims
    assert (0, 0, 98) in victims and (0, 0, 102) in victims


def test_victims_of_respects_bank_edges(machine):
    refresher = SelectiveRefresher(AnvilConfig.baseline())
    victims = refresher.victims_of(machine, [agg(0)])
    assert victims == [(0, 0, 1)]


def test_victims_of_radius_two(machine):
    config = AnvilConfig(victim_radius=2)
    refresher = SelectiveRefresher(config)
    victims = refresher.victims_of(machine, [agg(100)])
    assert set(victims) == {(0, 0, 98), (0, 0, 99), (0, 0, 101), (0, 0, 102)}


def test_refresh_charges_overhead_and_counts(machine):
    refresher = SelectiveRefresher(AnvilConfig.baseline())
    refreshed = refresher.refresh(machine, [(0, 0, 99), (0, 0, 101)])
    assert refreshed == 2
    assert machine.overhead_cycles > 0
    assert machine.memory.controller.stats.selective_refreshes == 2
