"""Heavy-load interaction tests: background co-runners vs detection."""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.attacks import DoubleSidedClflushAttack
from repro.core import AnvilConfig, AnvilModule
from repro.errors import ConfigError
from repro.presets import small_machine
from repro.sim.ops import LOAD
from repro.units import MB
from repro.workloads import BackgroundMix


def scaled_config() -> AnvilConfig:
    return AnvilConfig(
        llc_miss_threshold=3_300, tc_ms=1.0, ts_ms=1.0,
        sampling_rate_hz=50_000, assumed_flip_accesses=30_000,
    )


def test_attack_detected_under_heavy_load():
    """Table 3's heavy-load scenario at test scale: co-runner misses share
    the counters and dilute samples, but detection and protection hold."""
    machine = small_machine(threshold_min=30_000)
    mix = BackgroundMix(scale=0.15, seed=9, buffer_cap_bytes=4 << 20)
    mix.attach(machine)
    anvil = AnvilModule(machine, scaled_config())
    anvil.install()
    attack = DoubleSidedClflushAttack(buffer_bytes=8 * MB)
    result = attack.run(machine, max_ms=12, stop_on_flip=False)
    mix.detach()
    assert result.flips == 0
    assert anvil.stats.detection_count > 0
    assert mix.injected_ops > 0


def test_background_dilutes_attack_sample_share():
    """With co-runners, the attack rows' share of stage-2 samples drops —
    the mechanism behind the paper's heavy-load detection latencies."""

    def attack_share(with_background: bool) -> float:
        machine = small_machine(threshold_min=10**9)
        if with_background:
            mix = BackgroundMix(scale=0.15, seed=9, buffer_cap_bytes=4 << 20)
            mix.attach(machine)
        anvil = AnvilModule(machine, scaled_config())
        anvil.install()
        attack = DoubleSidedClflushAttack(buffer_bytes=8 * MB)
        attack.run(machine, max_ms=8, stop_on_flip=False)
        aggressor_rows = {
            (c.rank, c.bank, c.row) for c in attack.aggressor_coords
        }
        total = 0
        hits = 0
        for detection in anvil.stats.detections:
            for aggressor in detection.aggressors:
                total += aggressor.sample_count
                if aggressor.row_key in aggressor_rows:
                    hits += aggressor.sample_count
        samples = anvil.stats.samples_collected
        return hits / samples if samples else 0.0

    clean = attack_share(with_background=False)
    loaded = attack_share(with_background=True)
    assert clean > 0
    assert loaded < clean


def test_background_alone_is_not_flagged():
    """Co-runners by themselves (streaming + pointer-chasing profiles)
    must not trip the detector's locality analysis."""
    machine = small_machine()
    mix = BackgroundMix(scale=0.15, seed=9, buffer_cap_bytes=4 << 20)
    mix.attach(machine)
    anvil = AnvilModule(machine, scaled_config())
    anvil.install()

    from repro.sim import compute

    def stream():
        while True:
            yield compute(500)

    machine.run(stream(), max_cycles=machine.clock.cycles_from_ms(15))
    mix.detach()
    assert anvil.stats.detection_count == 0


def test_dropped_machine_is_freed_without_the_cycle_collector():
    """The machine holds ANVIL's timer callbacks and the mix's hook and
    timer, and none of them holds the machine strongly, so a dropped
    machine (with its DRAM and page tables) is freed at once instead of
    living on until the cyclic collector runs."""
    gc.collect()
    gc.disable()
    try:
        machine = small_machine(threshold_min=30_000)
        mix = BackgroundMix(scale=0.15, seed=9, buffer_cap_bytes=4 << 20)
        mix.attach(machine)
        anvil = AnvilModule(machine, scaled_config())
        anvil.install()
        attack = DoubleSidedClflushAttack(buffer_bytes=8 * MB)
        attack.run(machine, max_ms=2.5, stop_on_flip=False)
        assert anvil.stats.stage2_windows >= 1
        assert mix.injected_ops > 0
        freed = weakref.ref(machine)
        del machine, mix, anvil, attack
        assert freed() is None
    finally:
        gc.enable()


def test_background_mix_attaches_once():
    """A mix attaches once and a machine carries one mix: a second attach
    would map every co-runner buffer again and inject a second stream of
    co-runner ops.  ``detach`` is idempotent and frees the machine for
    another mix."""
    machine = small_machine()
    mix = BackgroundMix(seed=1)
    mix.attach(machine)
    pages = machine.memory.vm.mapped_pages
    with pytest.raises(ConfigError):
        mix.attach(machine)
    with pytest.raises(ConfigError):
        BackgroundMix(seed=2).attach(machine)
    assert machine.memory.vm.mapped_pages == pages
    assert machine._access_hooks == [mix._inject_up_to]

    mix.detach()
    mix.detach()
    assert machine._access_hooks == []

    other = BackgroundMix(seed=2)
    other.attach(machine)
    mix.detach()  # a stale detach leaves the new mix attached
    assert machine._access_hooks == [other._inject_up_to]
    vaddr = machine.memory.vm.mmap(4096)
    machine.run_fast([(LOAD, vaddr)] * 2_000)
    assert other.injected_ops > 0
