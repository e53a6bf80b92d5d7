"""Detector edge cases and failure injection."""

from __future__ import annotations

from repro.core import AnvilConfig, AnvilModule
from repro.core.detector import AnvilDetector
from repro.core.stats import AnvilStats
from repro.pmu import Event
from repro.presets import small_machine
from repro.sim import compute, load
from repro.units import MB


def scaled_config(**kwargs) -> AnvilConfig:
    defaults = dict(
        llc_miss_threshold=3_300, tc_ms=1.0, ts_ms=1.0,
        sampling_rate_hz=50_000, assumed_flip_accesses=30_000,
    )
    defaults.update(kwargs)
    return AnvilConfig(**defaults)


def test_untranslatable_samples_are_counted_not_fatal(attack_machine):
    """Samples whose page was unmapped between sampling and analysis are
    skipped and counted (real ANVIL faces exited processes)."""
    machine = attack_machine
    anvil = AnvilModule(machine, scaled_config())
    anvil.install()
    base = machine.memory.vm.mmap(32 * MB)
    # Drive misses so stage 2 runs, but feed the PMU some accesses whose
    # vaddrs will not translate during analysis: inject synthetic records.
    from repro.mem import MemoryAccess

    counter = [0]

    def stream():
        while True:
            counter[0] += 1
            yield load(base + (counter[0] * 64) % (32 * MB))
            # Give the phantom first claim on the next sampling slot by
            # advancing time before offering it.
            yield compute(200)
            record = MemoryAccess(
                vaddr=0xDEAD0000_0000 + counter[0] * 4096,
                paddr=0, is_store=False, level="DRAM",
                latency_cycles=150, llc_miss=True,
            )
            machine.pmu.on_access(record, machine.cycles)

    machine.run(stream(), max_cycles=machine.clock.cycles_from_ms(8))
    assert anvil.stats.stage2_windows > 0
    assert anvil.stats.untranslatable_samples > 0


def test_detector_stop_mid_stage2(attack_machine):
    """Stopping while stage 2 is armed must disable sampling and PMI cost."""
    machine = attack_machine
    stats = AnvilStats()
    detector = AnvilDetector(machine, scaled_config(), stats)
    detector.start(machine)
    base = machine.memory.vm.mmap(32 * MB)
    counter = [0]

    def stream():
        while True:
            counter[0] += 1
            yield load(base + (counter[0] * 64) % (32 * MB))

    # Run just past the first stage-1 window so stage 2 arms.
    machine.run(stream(), max_cycles=machine.clock.cycles_from_ms(1.5))
    assert machine.pmi_cost_cycles > 0  # stage 2 active
    detector.stop(machine)
    assert machine.pmi_cost_cycles == 0
    # Pending window timers become no-ops.
    machine.run(stream(), max_cycles=machine.clock.cycles_from_ms(2))
    assert stats.stage2_windows == 0  # the armed window never completed


def test_double_install_uninstall_idempotent(machine):
    anvil = AnvilModule(machine, scaled_config())
    anvil.install()
    anvil.install()
    machine.run([compute(1000)] * 5)
    anvil.uninstall()
    anvil.uninstall()
    assert not anvil.installed


def test_idle_machine_overhead_is_tiny(machine):
    """Stage-1 bookkeeping alone: far below 0.1% on an idle machine."""
    anvil = AnvilModule(machine, scaled_config())
    anvil.install()

    def stream():
        while True:
            yield compute(1000)

    machine.run(stream(), max_cycles=machine.clock.cycles_from_ms(50))
    assert machine.overhead_cycles / machine.cycles < 0.005


def test_stage1_counts_stores_toward_threshold(attack_machine):
    """The stage-1 gate uses LONGEST_LAT_CACHE_MISS, which includes store
    misses — a store-heavy attack cannot slip under the gate."""
    machine = attack_machine
    anvil = AnvilModule(machine, scaled_config())
    anvil.install()
    base = machine.memory.vm.mmap(32 * MB)
    from repro.sim import store

    counter = [0]

    def stream():
        while True:
            counter[0] += 1
            yield store(base + (counter[0] * 64) % (32 * MB))

    machine.run(stream(), max_cycles=machine.clock.cycles_from_ms(5))
    assert anvil.stats.stage1_triggers > 0
    assert machine.pmu.read(Event.MEM_STORE_UOPS_RETIRED_LLC_MISS) > 0


def test_detection_time_includes_refresh_work(attack_machine, fast_anvil_config):
    """The Detection timestamp is taken *after* the selective refreshes,
    matching Table 3's 'includes the time to identify and selectively
    refresh potential victim rows'."""
    from repro.attacks import DoubleSidedClflushAttack

    machine = attack_machine
    anvil = AnvilModule(machine, fast_anvil_config)
    anvil.install()
    attack = DoubleSidedClflushAttack(buffer_bytes=16 * MB)
    attack.run(machine, max_ms=5, stop_on_flip=False)
    detection = anvil.stats.detections[0]
    assert detection.refreshed_rows
    first_refresh_time = anvil.stats.refresh_times_cycles[0]
    assert detection.time_cycles >= first_refresh_time
