"""End-to-end attack tests on unprotected and partially mitigated machines."""

from __future__ import annotations

import pytest

from repro.attacks import (
    ClflushFreeAttack,
    DoubleSidedClflushAttack,
    SingleSidedClflushAttack,
)
from repro.attacks.targeting import HammerTriple, RowResolver
from repro.errors import ClflushRestrictedError
from repro.presets import paper_machine, small_machine
from repro.units import MB

THRESHOLD = 4_000  # fast-flipping test module
BUF = 16 * MB


def run_attack(attack_cls, machine=None, max_ms=30, **kwargs):
    machine = machine or small_machine(threshold_min=THRESHOLD)
    attack = attack_cls(buffer_bytes=BUF, **kwargs)
    result = attack.run(machine, max_ms=max_ms)
    return machine, attack, result


# -- Table 1 behaviours -----------------------------------------------------------


def test_double_sided_clflush_flips():
    machine, attack, result = run_attack(DoubleSidedClflushAttack)
    assert result.flipped
    assert result.time_to_first_flip_ms is not None


def test_double_sided_min_accesses_near_threshold():
    """Every counted access disturbs the victim, so the minimum access
    count equals the victim row's flip threshold (Table 1 calibration)."""
    machine, attack, result = run_attack(DoubleSidedClflushAttack)
    assert THRESHOLD * 0.95 <= result.min_row_accesses <= THRESHOLD * 1.3


def test_single_sided_needs_roughly_double_accesses():
    machine, attack, result = run_attack(SingleSidedClflushAttack, max_ms=60)
    assert result.flipped
    assert result.min_row_accesses >= 1.7 * THRESHOLD


def test_single_sided_slower_than_double_sided():
    _, _, double = run_attack(DoubleSidedClflushAttack)
    _, _, single = run_attack(SingleSidedClflushAttack, max_ms=60)
    assert single.time_to_first_flip_ms > double.time_to_first_flip_ms


def test_clflush_free_flips_without_clflush():
    machine, attack, result = run_attack(ClflushFreeAttack, max_ms=40)
    assert result.flipped
    from repro.sim import CLFLUSH

    assert all(op[0] != CLFLUSH for op in attack.iteration_ops())


def test_clflush_free_iteration_time_matches_paper_estimate():
    """~880 cycles = ~338 ns per double-sided hammer iteration (Sec. 2.2)."""
    machine, attack, result = run_attack(ClflushFreeAttack, max_ms=40)
    assert result.ns_per_iteration is not None
    assert 300 <= result.ns_per_iteration <= 420


def test_clflush_free_two_misses_per_set_per_iteration():
    machine, attack, result = run_attack(ClflushFreeAttack, max_ms=40)
    # 4 DRAM accesses per iteration: aggressor + sacrificial conflict, x2 sets.
    per_iter = result.total_dram_accesses / result.iterations
    assert 3.8 <= per_iter <= 4.3


def test_attack_victim_is_adjacent_to_aggressors():
    machine, attack, result = run_attack(DoubleSidedClflushAttack)
    aggressors = {c.row for c in attack.aggressor_coords}
    victim = attack.victim_coords[0].row
    assert aggressors == {victim - 1, victim + 1}
    flip_row = result.details["first_flip_row_id"]
    coord = machine.memory.device.coord_of_row_id(flip_row)
    assert abs(coord.row - victim) <= 2


def test_attack_result_reports_llc_misses():
    _, _, result = run_attack(DoubleSidedClflushAttack)
    assert result.llc_misses >= result.total_dram_accesses


# -- mitigation interactions ----------------------------------------------------------


def test_clflush_ban_stops_clflush_attack():
    machine = small_machine(threshold_min=THRESHOLD, clflush_allowed=False)
    attack = DoubleSidedClflushAttack(buffer_bytes=BUF)
    with pytest.raises(ClflushRestrictedError):
        attack.run(machine, max_ms=10)


def test_clflush_ban_does_not_stop_clflush_free():
    """The headline Section 2.2 result: banning CLFLUSH is insufficient."""
    machine = small_machine(threshold_min=THRESHOLD, clflush_allowed=False)
    attack = ClflushFreeAttack(buffer_bytes=BUF)
    result = attack.run(machine, max_ms=40)
    assert result.flipped


def test_double_refresh_does_not_stop_fast_attack():
    """Section 2.1: a 32 ms refresh period still leaves enough time for a
    double-sided CLFLUSH attack that flips in less than 32 ms."""
    machine = small_machine(threshold_min=THRESHOLD, refresh_scale=2.0)
    attack = DoubleSidedClflushAttack(buffer_bytes=BUF)
    result = attack.run(machine, max_ms=60)
    assert result.flipped
    assert result.time_to_first_flip_ms < 32.0


def test_slow_attack_defeated_by_short_retention():
    """A retention window shorter than the attack's time-to-flip resets
    the victim before it accumulates enough disturbance."""
    machine = small_machine(threshold_min=40_000, refresh_scale=16.0)  # 4 ms epochs
    attack = DoubleSidedClflushAttack(buffer_bytes=BUF)
    result = attack.run(machine, max_ms=40)
    assert not result.flipped


def test_restricted_pagemap_blocks_preparation():
    from repro.errors import PagemapRestrictedError

    machine = small_machine(threshold_min=THRESHOLD, pagemap_restricted=True)
    attack = ClflushFreeAttack(buffer_bytes=BUF)
    with pytest.raises(PagemapRestrictedError):
        attack.prepare(machine)


def test_privileged_pagemap_override():
    machine = small_machine(threshold_min=THRESHOLD, pagemap_restricted=True)
    attack = ClflushFreeAttack(buffer_bytes=BUF, privileged_pagemap=True)
    attack.prepare(machine)
    assert attack.prepared


# -- attack framework ----------------------------------------------------------------


def test_ops_requires_prepare():
    attack = DoubleSidedClflushAttack()
    with pytest.raises(RuntimeError):
        next(attack.ops())


def test_run_without_flip_budget_expires():
    machine = small_machine(threshold_min=10_000_000)  # effectively unflippable
    attack = DoubleSidedClflushAttack(buffer_bytes=BUF)
    result = attack.run(machine, max_ms=2)
    assert not result.flipped
    assert result.elapsed_ms >= 2.0


def test_eviction_sets_exposed():
    machine = small_machine(threshold_min=THRESHOLD)
    attack = ClflushFreeAttack(buffer_bytes=BUF)
    attack.prepare(machine)
    set_x, set_y = attack.eviction_sets
    assert len(set_x) == len(set_y) == 12


# -- exact oracle -------------------------------------------------------------------
#
# Every AttackResult field, pinned on the reference engine before attacks
# moved onto Machine.run_fast.  A change to any value means an engine or
# model change altered an experiment's outcome, not just its speed.

PINNED_FIRST_FLIP = {
    SingleSidedClflushAttack: (60, {
        "name": "single-sided-clflush",
        "elapsed_ms": 1.0429426923076923,
        "iterations": 4011,
        "total_dram_accesses": 8022,
        "flips": 1,
        "time_to_first_flip_ms": 1.0413038461538462,
        "min_row_accesses": 8010,
        "ns_per_iteration": 260.0206163818729,
        "llc_misses": 8022,
        "details": {"first_flip_row_id": 1230, "first_flip_bit": 7903},
    }),
    DoubleSidedClflushAttack: (30, {
        "name": "double-sided-clflush",
        "elapsed_ms": 0.3016288461538461,
        "iterations": 2010,
        "total_dram_accesses": 4020,
        "flips": 1,
        "time_to_first_flip_ms": 0.30051,
        "min_row_accesses": 4005,
        "ns_per_iteration": 150.06410256410254,
        "llc_misses": 4020,
        "details": {"first_flip_row_id": 1230, "first_flip_bit": 7903},
    }),
    ClflushFreeAttack: (40, {
        "name": "double-sided-clflush-free",
        "elapsed_ms": 0.7116888461538461,
        "iterations": 2004,
        "total_dram_accesses": 8058,
        "flips": 1,
        "time_to_first_flip_ms": 0.7111896153846153,
        "min_row_accesses": 4005,
        "ns_per_iteration": 355.1341547673883,
        "llc_misses": 8058,
        "details": {"first_flip_row_id": 1230, "first_flip_bit": 7903},
    }),
}


@pytest.mark.parametrize(
    "attack_cls", list(PINNED_FIRST_FLIP), ids=lambda cls: cls.__name__
)
def test_attack_to_first_flip_pinned(attack_cls):
    from dataclasses import asdict

    max_ms, expected = PINNED_FIRST_FLIP[attack_cls]
    _, _, result = run_attack(attack_cls, max_ms=max_ms)
    assert asdict(result) == expected


def test_clflush_free_under_anvil_pinned(attack_machine, fast_anvil_config):
    """A fixed 6 ms CLFLUSH-free window under ANVIL: the attack result, the
    detector's counters, and every detection (time, aggressors, refreshes)."""
    from dataclasses import asdict

    from repro.core import AnvilModule

    anvil = AnvilModule(attack_machine, fast_anvil_config)
    anvil.install()
    attack = ClflushFreeAttack(buffer_bytes=BUF)
    result = attack.run(attack_machine, max_ms=6.0, stop_on_flip=False)
    assert asdict(result) == {
        "name": "double-sided-clflush-free",
        "elapsed_ms": 6.001725,
        "iterations": 12008,
        "total_dram_accesses": 48076,
        "flips": 0,
        "time_to_first_flip_ms": None,
        "min_row_accesses": None,
        "ns_per_iteration": 499.81054297135245,
        "llc_misses": 48076,
        "details": {},
    }
    assert (attack_machine.cycles, attack_machine.overhead_cycles) == (
        15_604_485, 4_493_498,
    )
    stats = anvil.stats
    assert (
        stats.stage1_windows, stats.stage1_triggers, stats.stage2_windows,
        stats.samples_collected, stats.untranslatable_samples,
        stats.selective_refreshes,
    ) == (3, 3, 2, 99, 0, 14)
    assert stats.refresh_times_cycles == [5_221_726] * 7 + [10_459_188] * 7
    detections = [
        (
            d.time_cycles,
            [(a.row_key, a.sample_count, a.bank_other_samples) for a in d.aggressors],
            list(d.refreshed_rows),
        )
        for d in stats.detections
    ]
    assert detections == [
        (
            5_221_726,
            [((0, 0, 1231), 15, 34), ((0, 0, 1229), 14, 35),
             ((0, 0, 1035), 13, 36), ((0, 0, 517), 7, 42)],
            [(0, 0, 1230), (0, 0, 1232), (0, 0, 1228), (0, 0, 1034),
             (0, 0, 1036), (0, 0, 516), (0, 0, 518)],
        ),
        (
            10_459_188,
            [((0, 0, 1035), 15, 35), ((0, 0, 517), 12, 38),
             ((0, 0, 1229), 12, 38), ((0, 0, 1231), 11, 39)],
            [(0, 0, 1034), (0, 0, 1036), (0, 0, 516), (0, 0, 518),
             (0, 0, 1228), (0, 0, 1230), (0, 0, 1232)],
        ),
    ]


# -- exact setup oracle on paper_machine ------------------------------------------------
#
# What preparation hands an attack on the 4 GB testbed at seed 1, recorded
# with the free list shuffled up front and one pagemap read per page: the
# frames of the 256 MB attack buffer, the hammer triple each attack picks
# and the CLFLUSH-free eviction sets.  The tests above pin only
# small_machine.

PAPER_BUF = 256 * MB
PINNED_PAPER_TRIPLE = HammerTriple(
    bank_key=(0, 3),
    victim_row=13488,
    victim_vaddr=0x7F0000EC4000,
    aggressor_low_vaddr=0x7F0002A65000,
    aggressor_high_vaddr=0x7F000964B000,
)
# Both aggressors fall in LLC set 2496 at this seed, so Set X and Set Y
# come out as the same twelve addresses.
PINNED_PAPER_EVICTION_SET = [
    0x7F000001A000, 0x7F0000056000, 0x7F0000069000, 0x7F000007D000,
    0x7F0000141000, 0x7F0000164000, 0x7F00001F0000, 0x7F000020E000,
    0x7F000024C000, 0x7F000024F000, 0x7F000039A000, 0x7F00003A6000,
]


def prepare_on_paper_machine(attack_cls, monkeypatch):
    """Prepare ``attack_cls`` on ``paper_machine(seed=1)``; returns the
    attack and every triple its resolver chose."""
    chosen = []
    choose = RowResolver.choose_triple

    def spy(self, score=None):
        chosen.append(choose(self, score))
        return chosen[-1]

    monkeypatch.setattr(RowResolver, "choose_triple", spy)
    attack = attack_cls(buffer_bytes=PAPER_BUF, seed=1)
    attack.prepare(paper_machine(seed=1))
    return attack, chosen


def test_paper_machine_buffer_frames_pinned():
    import zlib

    vm = paper_machine(seed=1).memory.vm
    base = vm.mmap(PAPER_BUF)
    frames = ",".join(str(vm.translate(base + i * 4096) >> 12) for i in range(PAPER_BUF // 4096))
    assert (base, zlib.crc32(frames.encode()), vm.free_pages) == (
        0x7F00_0000_0000, 2542323421, 978944,
    )


@pytest.mark.parametrize(
    "attack_cls", [DoubleSidedClflushAttack, SingleSidedClflushAttack],
    ids=lambda cls: cls.__name__,
)
def test_paper_machine_triple_pinned(attack_cls, monkeypatch):
    attack, chosen = prepare_on_paper_machine(attack_cls, monkeypatch)
    assert chosen == [PINNED_PAPER_TRIPLE]
    assert attack.aggressor_coords[0] == (0, 3, 13487, 0)


def test_paper_machine_eviction_sets_pinned(monkeypatch):
    attack, chosen = prepare_on_paper_machine(ClflushFreeAttack, monkeypatch)
    assert chosen == [PINNED_PAPER_TRIPLE]
    assert attack.eviction_sets == (PINNED_PAPER_EVICTION_SET, PINNED_PAPER_EVICTION_SET)
