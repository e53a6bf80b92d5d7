"""Baseline-defense tests: PARA, TRR, ARMOR, ECC, refresh scaling, bans."""

from __future__ import annotations

import pytest

from dataclasses import asdict

from repro.attacks import ClflushFreeAttack, DoubleSidedClflushAttack
from repro.defenses import (
    Armor,
    ClflushBan,
    DoubleRefresh,
    EccScrubber,
    Para,
    TargetedRowRefresh,
    apply_refresh_scale,
)
from repro.errors import ClflushRestrictedError
from repro.presets import small_machine
from repro.units import MB

THRESHOLD = 4_000
BUF = 16 * MB


def attack_under(defense, max_ms=30, threshold=THRESHOLD):
    machine = small_machine(threshold_min=threshold)
    if defense is not None:
        defense.install(machine)
    attack = DoubleSidedClflushAttack(buffer_bytes=BUF)
    result = attack.run(machine, max_ms=max_ms)
    return machine, result


# -- PARA -------------------------------------------------------------------------


def test_para_stops_double_sided_attack():
    machine, result = attack_under(Para(probability=0.002))
    assert not result.flipped


def test_para_triggers_proportionally():
    para = Para(probability=0.01)
    machine, result = attack_under(para)
    activations = machine.memory.device.stats.activations
    # Expect ~1% of activations to trigger, within loose bounds.
    assert 0.003 * activations < para.triggered < 0.03 * activations


def test_para_zero_probability_rejected():
    with pytest.raises(ValueError):
        Para(probability=0.0)


def test_para_uninstall():
    machine = small_machine(threshold_min=THRESHOLD)
    para = Para(probability=1.0)
    para.install(machine)
    para.uninstall(machine)
    attack = DoubleSidedClflushAttack(buffer_bytes=BUF)
    assert attack.run(machine, max_ms=20).flipped


# -- TRR ---------------------------------------------------------------------------


def test_trr_stops_attack():
    machine, result = attack_under(TargetedRowRefresh(activation_threshold=500))
    assert not result.flipped


def test_trr_threshold_above_flip_point_fails():
    """A TRR threshold above the cell flip threshold refreshes too late —
    the DDR4 'optional module' worry of Section 1.2."""
    machine, result = attack_under(
        TargetedRowRefresh(activation_threshold=50_000), max_ms=30
    )
    assert result.flipped


def test_trr_limited_tracker_table_evicts():
    trr = TargetedRowRefresh(activation_threshold=500, table_size=2)
    machine = small_machine(threshold_min=THRESHOLD)
    trr.install(machine)
    # Touch many distinct rows in one bank to churn the tracker table.
    mapping = machine.memory.mapping
    for row in range(0, 64):
        machine.memory.controller.access(
            mapping.address_in_row(0, 0, row), 20_000 + row * 200
        )
    assert trr.evicted_trackers > 0


# -- ARMOR -----------------------------------------------------------------------------


def test_armor_stops_attack():
    machine, result = attack_under(Armor(hot_threshold=500))
    assert not result.flipped


def test_armor_absorbs_hot_activations():
    armor = Armor(hot_threshold=200)
    machine, result = attack_under(armor)
    assert armor.absorbed > 0


# -- ECC ---------------------------------------------------------------------------------


def test_ecc_corrects_single_flip():
    machine = small_machine(threshold_min=THRESHOLD)
    ecc = EccScrubber()
    ecc.install(machine)
    attack = DoubleSidedClflushAttack(buffer_bytes=BUF)
    attack.run(machine, max_ms=30)  # stops at first flip
    report = ecc.scrub()
    assert report.corrected_words >= 1
    assert report.protected


def test_ecc_overwhelmed_by_sustained_hammering():
    """Section 1.2: 'multiple bit-flips per word' defeat SECDED.  Keep
    hammering well past the first flip until some word collects two."""
    machine = small_machine(threshold_min=2_000)
    ecc = EccScrubber()
    ecc.install(machine)
    attack = DoubleSidedClflushAttack(buffer_bytes=BUF)
    attack.run(machine, max_ms=50, stop_on_flip=False)
    report = ecc.scrub()
    total_flips = machine.memory.device.flip_count()
    assert total_flips > 2
    # With enough flips in one row, word collisions appear eventually;
    # at minimum ECC must report every flipped word.
    assert report.corrected_words + 2 * report.uncorrectable_words <= total_flips
    assert report.corrected_words + report.uncorrectable_words > 0


def test_ecc_clean_without_attack():
    machine = small_machine()
    ecc = EccScrubber()
    ecc.install(machine)
    assert ecc.scrub().clean


def test_ecc_requires_install():
    with pytest.raises(RuntimeError):
        EccScrubber().scrub()


# -- refresh scaling -----------------------------------------------------------------------


def test_double_refresh_halves_retention():
    machine = small_machine()
    apply_refresh_scale(machine, 2.0)
    assert machine.memory.controller.config.timings.retention_ms == 32.0


def test_double_refresh_defense_object():
    machine = small_machine()
    DoubleRefresh().install(machine)
    assert machine.memory.controller.config.timings.retention_ms == 32.0


@pytest.mark.parametrize(
    "make_defense",
    [lambda: Para(probability=1.0), lambda: TargetedRowRefresh(activation_threshold=1)],
    ids=["para", "trr"],
)
def test_refresh_scaling_keeps_controller_defenses(make_defense):
    """Retiming rebuilds the DRAM device but must not unregister a
    defense installed before it."""
    machine = small_machine()
    controller = machine.memory.controller
    observers = controller._observers  # the fast engine holds this list
    defense = make_defense()
    defense.install(machine)
    DoubleRefresh().install(machine)
    assert controller.config.timings.retention_ms == 32.0
    assert controller._observers is observers
    assert observers == [defense]
    controller.access(machine.memory.mapping.address_in_row(0, 0, 5), 20_000)
    assert controller.stats.observer_refreshes == 2  # rows 4 and 6
    assert controller.device.stats.refreshes_issued == 2


def test_double_refresh_insufficient_against_fast_attack():
    machine, result = attack_under(DoubleRefresh(), max_ms=40)
    assert result.flipped  # Section 2.1's headline


def test_refresh_scaling_bounded_by_trfc():
    """Refresh commands cannot arrive faster than they complete: the
    physical ceiling on the 'just refresh more' mitigation."""
    from repro.errors import ConfigError

    machine = small_machine()
    with pytest.raises(ConfigError):
        apply_refresh_scale(machine, 32.0)


def test_fast_refresh_scaling_beats_slow_attack():
    """With retention shorter than the attack's accumulation time, the
    victim is always refreshed first (the principle that works; the cost
    is what makes it impractical, Section 2.1)."""
    machine = small_machine(threshold_min=60_000, refresh_scale=16.0)
    attack = DoubleSidedClflushAttack(buffer_bytes=BUF)
    result = attack.run(machine, max_ms=30)
    assert not result.flipped


# -- CLFLUSH ban ------------------------------------------------------------------------------


def test_clflush_ban_blocks_instruction():
    machine = small_machine()
    ClflushBan().install(machine)
    base = machine.memory.vm.mmap(8192)
    with pytest.raises(ClflushRestrictedError):
        machine.memory.clflush(base, 0)


def test_clflush_ban_uninstall():
    machine = small_machine()
    ban = ClflushBan()
    ban.install(machine)
    ban.uninstall(machine)
    base = machine.memory.vm.mmap(8192)
    machine.memory.access(base, 0)
    assert machine.memory.clflush(base, 100) > 0


# -- exact defense-grid oracle ------------------------------------------------------------
#
# Cells of the defense grid at the compressed scale of its paper-harness
# workload (flip threshold 5K units, 16 MB buffer, 1.25 ms to the first
# flip, PARA's probability and TRR's and ARMOR's threshold and window
# scaled 6x), seed 1: every AttackResult field, each cache level's
# counters, the controller's observer refreshes and the clock.  A change
# to any value means an engine, cache or defense change altered an
# experiment's outcome, not just its speed.

GRID_DEFENSES = {
    "none": lambda: None,
    "para": lambda: Para(probability=0.002 * 6),
    "trr": lambda: TargetedRowRefresh(activation_threshold=1_000 // 6, window_ms=64 / 6),
    "armor": lambda: Armor(hot_threshold=1_000 // 6, window_ms=64 / 6),
}
GRID_ATTACKS = {"clflush": DoubleSidedClflushAttack, "clflush-free": ClflushFreeAttack}

PINNED_GRID_CELLS = {
    "none/clflush-free": {
        "result": {
            "name": "double-sided-clflush-free",
            "elapsed_ms": 0.8912453846153846,
            "iterations": 2510,
            "total_dram_accesses": 10084,
            "flips": 1,
            "time_to_first_flip_ms": 0.8905896153846153,
            "min_row_accesses": 5017,
            "ns_per_iteration": 355.07784247624886,
            "llc_misses": 10084,
            "details": {"first_flip_row_id": 5332, "first_flip_bit": 43326},
        },
        # (hits, misses, evictions, invalidations) of L1, L2 and the LLC
        "caches": [
            (0, 115_456, 115_448, 0),
            (0, 115_456, 115_440, 0),
            (105_372, 10_084, 10_060, 0),
        ],
        "observer_refreshes": 0,
        "cycles": 2_317_238,
    },
    "armor/clflush-free": {
        "result": {
            "name": "double-sided-clflush-free",
            "elapsed_ms": 1.2500003846153844,
            "iterations": 4242,
            "total_dram_accesses": 17012,
            "flips": 0,
            "time_to_first_flip_ms": None,
            "min_row_accesses": None,
            "ns_per_iteration": 294.67241504370213,
            "llc_misses": 17012,
            "details": {},
        },
        "caches": [
            (0, 195_130, 195_122, 0),
            (0, 195_130, 195_114, 0),
            (178_118, 17_012, 16_988, 0),
        ],
        "observer_refreshes": 0,
        "cycles": 3_250_001,
    },
    "para/clflush": {
        "result": {
            "name": "double-sided-clflush",
            "elapsed_ms": 1.250038076923077,
            "iterations": 8332,
            "total_dram_accesses": 16_664,
            "flips": 0,
            "time_to_first_flip_ms": None,
            "min_row_accesses": None,
            "ns_per_iteration": 150.02857380257765,
            "llc_misses": 16_664,
            "details": {},
        },
        "caches": [
            (0, 16_664, 0, 16_662),
            (0, 16_664, 0, 16_662),
            (0, 16_664, 0, 16_662),
        ],
        "observer_refreshes": 356,
        "cycles": 3_250_099,
    },
    "trr/clflush": {
        "result": {
            "name": "double-sided-clflush",
            "elapsed_ms": 1.250038076923077,
            "iterations": 8332,
            "total_dram_accesses": 16_664,
            "flips": 0,
            "time_to_first_flip_ms": None,
            "min_row_accesses": None,
            "ns_per_iteration": 150.02857380257765,
            "llc_misses": 16_664,
            "details": {},
        },
        "caches": [
            (0, 16_664, 0, 16_662),
            (0, 16_664, 0, 16_662),
            (0, 16_664, 0, 16_662),
        ],
        "observer_refreshes": 200,
        "cycles": 3_250_099,
    },
    "armor/clflush": {
        "result": {
            "name": "double-sided-clflush",
            "elapsed_ms": 1.25002,
            "iterations": 13_776,
            "total_dram_accesses": 27_551,
            "flips": 0,
            "time_to_first_flip_ms": None,
            "min_row_accesses": None,
            "ns_per_iteration": 90.73896631823462,
            "llc_misses": 27_551,
            "details": {},
        },
        "caches": [
            (0, 27_551, 0, 27_550),
            (0, 27_551, 0, 27_550),
            (0, 27_551, 0, 27_550),
        ],
        "observer_refreshes": 0,
        "cycles": 3_250_052,
    },
    "para/clflush-free": {
        "result": {
            "name": "double-sided-clflush-free",
            "elapsed_ms": 1.2500007692307693,
            "iterations": 3522,
            "total_dram_accesses": 14_132,
            "flips": 0,
            "time_to_first_flip_ms": None,
            "min_row_accesses": None,
            "ns_per_iteration": 354.91220023588,
            "llc_misses": 14_132,
            "details": {},
        },
        "caches": [
            (0, 162_000, 161_992, 0),
            (0, 162_000, 161_984, 0),
            (147_868, 14_132, 14_108, 0),
        ],
        "observer_refreshes": 302,
        "cycles": 3_250_002,
    },
    "trr/clflush-free": {
        "result": {
            "name": "double-sided-clflush-free",
            "elapsed_ms": 1.2500007692307693,
            "iterations": 3522,
            "total_dram_accesses": 14_132,
            "flips": 0,
            "time_to_first_flip_ms": None,
            "min_row_accesses": None,
            "ns_per_iteration": 354.91220023588,
            "llc_misses": 14_132,
            "details": {},
        },
        "caches": [
            (0, 162_000, 161_992, 0),
            (0, 162_000, 161_984, 0),
            (147_868, 14_132, 14_108, 0),
        ],
        "observer_refreshes": 168,
        "cycles": 3_250_002,
    },
}


def grid_cell_outcome(cell: str) -> dict:
    """Run the ``defense/attack`` cell and return what the oracle pins."""
    defense_name, attack_name = cell.split("/")
    machine = small_machine(threshold_min=5_000, seed=1)
    defense = GRID_DEFENSES[defense_name]()
    if defense is not None:
        defense.install(machine)
    attack = GRID_ATTACKS[attack_name](buffer_bytes=BUF, seed=1)
    attack.prepare(machine)
    result = attack.run(machine, max_ms=1.25, stop_on_flip=True)
    hierarchy = machine.memory.hierarchy
    return {
        "result": asdict(result),
        "caches": [
            (c.stats.hits, c.stats.misses, c.stats.evictions, c.stats.invalidations)
            for c in (hierarchy.l1, hierarchy.l2, hierarchy.llc)
        ],
        "observer_refreshes": machine.memory.controller.stats.observer_refreshes,
        "cycles": machine.cycles,
    }


@pytest.mark.parametrize("cell", list(PINNED_GRID_CELLS))
def test_defense_grid_cell_pinned(cell):
    assert grid_cell_outcome(cell) == PINNED_GRID_CELLS[cell]
