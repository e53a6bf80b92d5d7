"""Refresh engine and DRAM device tests."""

from __future__ import annotations

import pytest

from repro.dram import DramConfig, DramCoord, DramDevice, RefreshEngine
from repro.dram.config import DisturbanceConfig, DramTimings
from repro.dram.device import DEFAULT_FILL_WORD
from repro.errors import AddressError
from repro.units import Clock


def small_device(threshold_min=1000, retention_ms=64.0) -> DramDevice:
    return DramDevice(
        DramConfig(
            ranks=1, banks_per_rank=4, rows_per_bank=2048, row_bytes=8192,
            timings=DramTimings(retention_ms=retention_ms),
            disturbance=DisturbanceConfig(
                threshold_min=threshold_min, spread=0.0, strong_fraction=0.0
            ),
        ),
        Clock(),
    )


# -- refresh engine -------------------------------------------------------------


def test_epoch_advances_each_retention_period():
    clock = Clock()
    engine = RefreshEngine(DramTimings(retention_ms=64), clock, total_rows=8192)
    retention = clock.cycles_from_ms(64)
    assert engine.epoch(0, 0) == 0 or engine.epoch(0, 0) == 1  # phase 0 row
    e1 = engine.epoch(100, retention // 2)
    e2 = engine.epoch(100, retention // 2 + retention)
    assert e2 == e1 + 1


def test_phases_staggered_across_rows():
    clock = Clock()
    engine = RefreshEngine(DramTimings(), clock, total_rows=8192)
    assert engine.phase(0) == 0
    assert engine.phase(4096) == engine.retention_cycles // 2


def test_next_refresh_after_time():
    clock = Clock()
    engine = RefreshEngine(DramTimings(), clock, total_rows=8192)
    t = engine.next_refresh(10, 12345)
    assert t > 12345
    assert (t - engine.phase(10)) % engine.retention_cycles == 0


def test_blocking_delay_inside_and_outside_trfc():
    clock = Clock()
    engine = RefreshEngine(DramTimings(), clock, total_rows=8192)
    assert engine.blocking_delay(0) == engine.trfc_cycles
    assert engine.blocking_delay(engine.trfc_cycles) == 0


def test_duty_fraction_doubles_with_refresh_rate():
    clock = Clock()
    base = RefreshEngine(DramTimings(), clock, 8192)
    double = RefreshEngine(DramTimings().scaled_refresh(2), clock, 8192)
    assert abs(double.duty_fraction() - 2 * base.duty_fraction()) < 1e-9


# -- device row buffer ---------------------------------------------------------------


def test_first_access_activates():
    device = small_device()
    out = device.access(DramCoord(0, 0, 100, 0), 0)
    assert out.activated and not out.row_hit


def test_second_access_row_hit():
    device = small_device()
    coord = DramCoord(0, 0, 100, 0)
    device.access(coord, 0)
    out = device.access(DramCoord(0, 0, 100, 512), 10)
    assert out.row_hit and not out.activated
    assert out.latency_cycles < device.config.timings.row_conflict_cycles(device.clock)


def test_row_conflict_costs_more_than_hit():
    device = small_device()
    device.access(DramCoord(0, 0, 100, 0), 0)
    conflict = device.access(DramCoord(0, 0, 200, 0), 10)
    hit = device.access(DramCoord(0, 0, 200, 64), 20)
    assert conflict.latency_cycles > hit.latency_cycles


def test_banks_have_independent_row_buffers():
    device = small_device()
    device.access(DramCoord(0, 0, 100, 0), 0)
    device.access(DramCoord(0, 1, 200, 0), 10)
    assert device.open_row(0, 0) == 100
    assert device.open_row(0, 1) == 200


def test_row_hits_do_not_disturb():
    """The row-buffer property of Section 3.1: repeated accesses to an
    open row cannot hammer."""
    device = small_device(threshold_min=10)
    coord = DramCoord(0, 0, 100, 0)
    device.access(coord, 0)
    for i in range(100):
        device.access(coord, i + 1)
    assert device.flip_count() == 0


def test_alternating_rows_disturb_the_victim():
    device = small_device(threshold_min=50)
    low, high = DramCoord(0, 0, 99, 0), DramCoord(0, 0, 101, 0)
    for i in range(60):
        device.access(low, i * 100)
        device.access(high, i * 100 + 50)
    flips = device.flips_in_row(DramCoord(0, 0, 100, 0))
    assert flips, "victim row should have flipped"


def test_activation_refreshes_own_row():
    device = small_device(threshold_min=50)
    aggressor = DramCoord(0, 0, 99, 0)
    victim_id = device.row_id(DramCoord(0, 0, 100, 0))
    other = DramCoord(0, 0, 500, 0)
    for i in range(30):
        device.access(aggressor, i * 100)
        device.access(other, i * 100 + 50)
    assert device.tracker.units(victim_id, device.refresh_engine.epoch(victim_id, 3000)) > 0
    # Now read the victim itself: its accumulator resets.
    device.access(DramCoord(0, 0, 100, 0), 4000)
    assert device.tracker.units(victim_id, device.refresh_engine.epoch(victim_id, 4000)) == 0


def test_refresh_row_resets_disturbance_even_when_open():
    device = small_device(threshold_min=1000)
    victim = DramCoord(0, 0, 100, 0)
    device.access(DramCoord(0, 0, 99, 0), 0)  # disturb victim
    device.access(victim, 10)  # victim now open
    device.access(DramCoord(0, 0, 99, 0), 20)  # disturb again, victim closed
    device.access(victim, 30)  # open again
    device.refresh_row(victim, 40)  # row-hit refresh path
    victim_id = device.row_id(victim)
    epoch = device.refresh_engine.epoch(victim_id, 40)
    assert device.tracker.units(victim_id, epoch) == 0


def test_weakest_rows_in_bank_excludes_edges():
    device = small_device()
    rows = device.weakest_rows_in_bank(0, 0, count=10)
    assert all(0 < r < 2047 for r in rows)
    assert len(rows) == 10


# -- device data + flips ---------------------------------------------------------------


def test_write_read_roundtrip():
    device = small_device()
    paddr = 8192 * 5 + 64
    device.write_word(paddr, 0xDEADBEEF)
    assert device.read_word(paddr) == 0xDEADBEEF


def test_unwritten_reads_fill_pattern():
    device = small_device()
    assert device.read_word(12345 & ~7) == 0xFFFFFFFFFFFFFFFF


def test_flip_corrupts_read_data():
    device = small_device(threshold_min=20)
    victim = DramCoord(0, 0, 100, 0)
    victim_base = device.mapping.encode(victim)
    low, high = DramCoord(0, 0, 99, 0), DramCoord(0, 0, 101, 0)
    for i in range(30):
        device.access(low, i * 100)
        device.access(high, i * 100 + 50)
    flips = device.flips_in_row(victim)
    assert flips
    flip = flips[0]
    word_addr = victim_base + (flip.bit_offset // 64) * 8
    value = device.read_word(word_addr)
    expected = 0xFFFFFFFFFFFFFFFF ^ (1 << (flip.bit_offset % 64))
    assert value == expected


def test_rewrite_heals_flipped_word():
    device = small_device(threshold_min=20)
    victim = DramCoord(0, 0, 100, 0)
    low, high = DramCoord(0, 0, 99, 0), DramCoord(0, 0, 101, 0)
    for i in range(30):
        device.access(low, i * 100)
        device.access(high, i * 100 + 50)
    flip = device.flips_in_row(victim)[0]
    word_addr = device.mapping.encode(victim) + (flip.bit_offset // 64) * 8
    device.write_word(word_addr, 0x1234)
    assert device.read_word(word_addr) == 0x1234


# -- range word store vs. a model built from flips_in_row and the write order ---------

ROW_WORDS = 8192 // 8


class WordLog:
    """Writes through ``write_words`` and remembers, per word, the value
    and how many flips its row had then; :meth:`expected` replays flips
    from ``flips_in_row`` on top, without the device's read path."""

    def __init__(self, device: DramDevice) -> None:
        self.device = device
        self.last: dict[int, tuple[int, int]] = {}

    def write(self, paddr: int, values: list[int]) -> None:
        self.device.write_words(paddr, values)
        for i, value in enumerate(values):
            coord = self.device.mapping.decode(paddr + 8 * i)
            self.last[paddr + 8 * i] = (value, len(self.device.flips_in_row(coord)))

    def expected(self, paddr: int, count: int) -> list[int]:
        out = []
        for word in range(paddr, paddr + 8 * count, 8):
            value, seen = self.last.get(word, (DEFAULT_FILL_WORD, 0))
            coord = self.device.mapping.decode(word)
            for flip in self.device.flips_in_row(coord)[seen:]:
                if flip.bit_offset // 64 == coord.col // 8:
                    value ^= 1 << (flip.bit_offset % 64)
            out.append(value)
        return out


def hammer(device: DramDevice, bank: int, victim_row: int, rounds: int, t0: int) -> int:
    """Double-sided hammer around ``victim_row``; returns the next time."""
    low, high = DramCoord(0, bank, victim_row - 1, 0), DramCoord(0, bank, victim_row + 1, 0)
    for i in range(rounds):
        device.access(low, t0 + i * 100)
        device.access(high, t0 + i * 100 + 50)
    return t0 + rounds * 100


def pattern(count: int, salt: int) -> list[int]:
    return [(0x9E3779B97F4A7C15 * (i + salt)) % (1 << 64) for i in range(count)]


def test_read_words_applies_flips_after_each_words_last_write():
    device = small_device(threshold_min=20)
    log = WordLog(device)
    victim = DramCoord(0, 0, 100, 0)
    base = device.mapping.encode(victim)
    log.write(base, pattern(ROW_WORDS // 2, 1))  # first half, before any flip
    t = hammer(device, 0, 100, 12, 0)
    early = device.flips_in_row(victim)
    assert len(early) >= 2
    healed = base + (early[0].bit_offset // 64) * 8
    log.write(healed, [0x1234])  # after a flip: heals it
    hammer(device, 0, 100, 30, t)
    flips = device.flips_in_row(victim)
    assert len(flips) > len(early)
    words_hit = {flip.bit_offset // 64 for flip in flips}
    assert any(w < ROW_WORDS // 2 for w in words_hit)  # written words flipped
    assert any(w >= ROW_WORDS // 2 for w in words_hit)  # unwritten words flipped
    want = log.expected(base, ROW_WORDS)
    assert device.read_words(base, ROW_WORDS) == want
    assert [device.read_word(base + 8 * i) for i in range(ROW_WORDS)] == want


def test_words_span_a_dram_row_boundary():
    device = small_device(threshold_min=20)
    log = WordLog(device)
    first, second = DramCoord(0, 0, 100, 0), DramCoord(0, 1, 100, 0)
    base = device.mapping.encode(first)
    assert device.mapping.encode(second) == base + 8192  # the next row in address order
    t = hammer(device, 0, 100, 12, 0)
    assert device.flips_in_row(first) and not device.flips_in_row(second)
    # One write over both rows: each row's words record that row's flips.
    log.write(base, pattern(2 * ROW_WORDS, 7))
    t = hammer(device, 0, 100, 30, t)
    hammer(device, 1, 100, 30, t)
    assert device.flips_in_row(second)
    assert device.read_words(base, 2 * ROW_WORDS) == log.expected(base, 2 * ROW_WORDS)
    mid = base + 8192 - 8 * 300
    assert device.read_words(mid, 600) == log.expected(mid, 600)


def test_bad_words_raise_and_store_nothing():
    device = small_device()
    end = device.mapping.capacity
    with pytest.raises(AddressError):
        device.write_words(0, [1, 2, 1 << 64])
    with pytest.raises(AddressError):
        device.write_words(0, [1, -1])
    with pytest.raises(AddressError):
        device.write_words(end - 16, [1, 2, 3])
    with pytest.raises(AddressError):
        device.read_words(end - 8, 2)
    with pytest.raises(AddressError):
        device.write_word(end, 1)
    assert device.read_words(0, 3) == [DEFAULT_FILL_WORD] * 3
    assert device.read_words(end - 16, 2) == [DEFAULT_FILL_WORD] * 2
