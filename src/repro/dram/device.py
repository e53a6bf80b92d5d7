"""The DRAM device: banks, row buffers, cells, and stored data.

The device models exactly what rowhammer manipulates:

- per-bank **row buffers** (open-page policy): an access to the open row is
  a row hit and does *not* activate — which is why "a rowhammer attack
  involves repeatedly accessing at least two rows within the same bank —
  otherwise the row buffer would prevent the rowhammering" (Section 3.1);
- **activations** deposit disturbance units on neighbouring rows and
  restore the activated row's own charge;
- **data** is stored sparsely (64-bit words); reads see any bit flips that
  occurred since the word was last written.  Read and write it by the
  range (:meth:`DramDevice.read_words` / :meth:`DramDevice.write_words`),
  which decodes once per DRAM row rather than once per word.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from typing import Sequence

from ..errors import AddressError
from ..units import Clock
from .config import DramConfig
from .disturbance import BitFlip, CellPopulation, DisturbanceTracker
from .mapping import AddressMapping, DramCoord
from .refresh import RefreshEngine

#: Attacker-friendly default contents: all ones, so flips are 1 -> 0.
DEFAULT_FILL_WORD = 0xFFFFFFFFFFFFFFFF


def check_words(values: Sequence[int]) -> None:
    """Raise :class:`AddressError` unless every value is a 64-bit word."""
    if values and not (0 <= min(values) and max(values) < 1 << 64):
        raise AddressError("DRAM words take 64-bit values")


@dataclass
class DeviceStats:
    """Aggregate activity counters."""

    accesses: int = 0
    row_hits: int = 0
    activations: int = 0
    refreshes_issued: int = 0  # explicit row refreshes (selective/TRR/PARA)
    activations_per_bank: dict = field(default_factory=dict)


@dataclass(slots=True)
class RowAccess:
    """Outcome of one device access."""

    coord: DramCoord
    row_hit: bool
    activated: bool
    latency_cycles: int
    new_flips: tuple[BitFlip, ...] = ()


class DramDevice:
    """One DRAM module: geometry, banks, cells, disturbance state, data."""

    def __init__(self, config: DramConfig | None = None, clock: Clock | None = None):
        self.config = config or DramConfig()
        self.clock = clock or Clock()
        self.mapping = AddressMapping(self.config)
        self.cells = CellPopulation(
            self.config.disturbance, row_bits=self.config.row_bytes * 8
        )
        self.tracker = DisturbanceTracker(self.cells, self.config.disturbance)
        self.refresh_engine = RefreshEngine(
            self.config.timings, self.clock, self.config.total_rows
        )
        self.stats = DeviceStats()
        # Open row per bank, indexed by dense bank id; None = precharged.
        self._open_rows: list[int | None] = [None] * self.config.total_banks
        # Sparse data: word-aligned paddr -> (value, row flip count at write).
        self._words: dict[int, tuple[int, int]] = {}
        self._row_flips: dict[int, list[BitFlip]] = {}
        self._timings_cycles = (
            self.config.timings.row_hit_cycles(self.clock),
            self.config.timings.row_closed_cycles(self.clock),
            self.config.timings.row_conflict_cycles(self.clock),
        )
        self._banks_per_rank = self.config.banks_per_rank
        self._rows_per_bank = self.config.rows_per_bank

    # -- identifiers -----------------------------------------------------------

    def bank_id(self, coord: DramCoord) -> int:
        return coord.rank * self._banks_per_rank + coord.bank

    def row_id(self, coord: DramCoord) -> int:
        return self.bank_id(coord) * self.config.rows_per_bank + coord.row

    def coord_of_row_id(self, row_id: int) -> DramCoord:
        bank_index, row = divmod(row_id, self.config.rows_per_bank)
        rank, bank = divmod(bank_index, self.config.banks_per_rank)
        return DramCoord(rank=rank, bank=bank, row=row, col=0)

    # -- the access path ---------------------------------------------------------

    def access(self, coord: DramCoord, time_cycles: int) -> RowAccess:
        """Perform a column access, activating the row if needed."""
        bank = self.bank_id(coord)
        open_row = self._open_rows[bank]
        hit_cyc, closed_cyc, conflict_cyc = self._timings_cycles
        if open_row == coord.row:
            self.stats.accesses += 1
            self.stats.row_hits += 1
            return RowAccess(
                coord=coord, row_hit=True, activated=False, latency_cycles=hit_cyc
            )
        latency = closed_cyc if open_row is None else conflict_cyc
        self._open_rows[bank] = coord.row
        flips = self._activate(coord, time_cycles)
        self.stats.accesses += 1
        self.stats.activations += 1
        per_bank = self.stats.activations_per_bank
        per_bank[bank] = per_bank.get(bank, 0) + 1
        return RowAccess(
            coord=coord,
            row_hit=False,
            activated=True,
            latency_cycles=latency,
            new_flips=tuple(flips),
        )

    def access_miss_fast(
        self, coord: DramCoord, bank: int, time_cycles: int
    ) -> tuple[int, int]:
        """The row-buffer-miss arm of :meth:`access` with *caller-deferred
        statistics* and no per-access allocations.

        Returns ``(latency_cycles, new_flip_count)``.  Used only by the
        fast-path engine (:mod:`repro.sim.fastpath`), which has already
        ruled out a row hit and takes over the ``accesses`` /
        ``activations`` / per-bank stats bookkeeping; the disturbance
        arithmetic below is the same statement sequence as
        :meth:`_activate` + :meth:`~repro.dram.disturbance.DisturbanceTracker.disturb`
        (same float accumulation order, same flip machinery via
        ``emit_flips``), so device state stays bit-identical to the
        reference path.  In the steady state it allocates nothing: no
        :class:`RowAccess`, no flip list, no per-victim method calls.
        """
        open_row = self._open_rows[bank]
        latency = self._timings_cycles[1] if open_row is None else self._timings_cycles[2]
        row = coord.row
        self._open_rows[bank] = row

        engine = self.refresh_engine
        retention = engine.retention_cycles
        total_rows = engine.total_rows
        phase_cache = engine._phase_cache
        rows_per_bank = self._rows_per_bank
        row_id = bank * rows_per_bank + row
        tracker = self.tracker
        state = tracker._state

        # Aggressor restore (tracker.on_refresh with the epoch inlined).
        phase = phase_cache.get(row_id)
        if phase is None:
            phase = (row_id * retention) // total_rows
            phase_cache[row_id] = phase
        shifted = time_cycles - phase
        epoch = 0 if shifted < 0 else 1 + shifted // retention
        entry = state.get(row_id)
        if entry is None:
            state[row_id] = [0.0, epoch, 0]
        else:
            entry[0] = 0.0
            entry[1] = epoch

        # Neighbour disturbance (tracker.disturb inlined per victim).
        disturbance = self.config.disturbance
        max_flips = disturbance.max_flips_per_row
        threshold_get = self.cells._threshold_cache.get
        flips_n = 0
        distance = 0
        for weight in disturbance.neighbor_weights:
            distance += 1
            for delta in (-distance, distance):
                victim_row = row + delta
                if not 0 <= victim_row < rows_per_bank:
                    continue
                victim_id = row_id + delta
                phase = phase_cache.get(victim_id)
                if phase is None:
                    phase = (victim_id * retention) // total_rows
                    phase_cache[victim_id] = phase
                shifted = time_cycles - phase
                vepoch = 0 if shifted < 0 else 1 + shifted // retention
                entry = state.get(victim_id)
                if entry is None:
                    entry = [weight, vepoch, 0]
                    state[victim_id] = entry
                elif entry[1] != vepoch:
                    entry[0] = weight
                    entry[1] = vepoch
                else:
                    entry[0] += weight
                tracker.total_units_deposited += weight
                if entry[2] < max_flips:
                    threshold = threshold_get(victim_id)
                    if threshold is None:
                        threshold = self.cells.threshold_for(victim_id)
                    if entry[0] >= threshold:
                        flips = tracker.emit_flips(victim_id, entry, time_cycles)
                        if flips:
                            row_flips = self._row_flips
                            bucket = row_flips.get(victim_id)
                            if bucket is None:
                                row_flips[victim_id] = list(flips)
                            else:
                                bucket.extend(flips)
                            flips_n += len(flips)
        return latency, flips_n

    def _activate(self, coord: DramCoord, time_cycles: int) -> list[BitFlip]:
        """Row activation: restore this row, disturb its neighbours."""
        engine = self.refresh_engine
        epoch = engine.epoch
        disturb = self.tracker.disturb
        row_id = self.row_id(coord)
        self.tracker.on_refresh(row_id, epoch(row_id, time_cycles))
        new_flips: list[BitFlip] = []
        row = coord.row
        rows_per_bank = self._rows_per_bank
        for distance, weight in enumerate(
            self.config.disturbance.neighbor_weights, start=1
        ):
            for delta in (-distance, distance):
                victim_row = row + delta
                if not 0 <= victim_row < rows_per_bank:
                    continue
                victim_id = row_id + delta
                flips = disturb(
                    victim_id, weight, epoch(victim_id, time_cycles), time_cycles
                )
                if flips:
                    for flip in flips:
                        self._row_flips.setdefault(victim_id, []).append(flip)
                    new_flips.extend(flips)
        return new_flips

    def refresh_row(self, coord: DramCoord, time_cycles: int) -> int:
        """Explicitly refresh one row via a read (ANVIL's selective refresh,
        TRR, PARA).  Returns the latency of the underlying access."""
        outcome = self.access(coord, time_cycles)
        # access() already restored the row if it activated; if the row was
        # open, its charge is in the row buffer and is restored on closure,
        # so clear the accumulator explicitly.
        if outcome.row_hit:
            row_id = self.row_id(coord)
            self.tracker.on_refresh(
                row_id, self.refresh_engine.epoch(row_id, time_cycles)
            )
        self.stats.refreshes_issued += 1
        return outcome.latency_cycles

    def open_row(self, rank: int, bank: int) -> int | None:
        """The currently open row in a bank (diagnostics/tests)."""
        return self._open_rows[rank * self.config.banks_per_rank + bank]

    # -- data ---------------------------------------------------------------------
    # Use the range API, read_words/write_words: it decodes once per DRAM
    # row a span touches.  read_word/write_word are one-word spans of it.

    def _span(self, paddr: int, count: int) -> tuple[int, int]:
        """Word-aligned ``[start, end)`` of ``count`` words from ``paddr``,
        raising :class:`AddressError` unless all of it is in the module."""
        start = paddr & ~0x7
        end = start + 8 * count
        if count and not (0 <= start and end <= self.mapping.capacity):
            raise AddressError(
                f"words {start:#x}..{end:#x} outside module "
                f"({self.mapping.capacity:#x})"
            )
        return start, end

    def _rows(self, start: int, end: int):
        """``(row_id, row_base, lo, hi)`` per DRAM row of ``[start, end)``:
        the row's id, its column-0 address and the span's slice of it."""
        row_bytes = self.config.row_bytes
        decode = self.mapping.decode
        lo = start
        while lo < end:
            coord = decode(lo)
            hi = min(end, lo - coord.col + row_bytes)
            yield self.row_id(coord), lo - coord.col, lo, hi
            lo = hi

    def write_words(self, paddr: int, values: Sequence[int]) -> None:
        """Store consecutive 64-bit words from ``paddr`` on.

        A stored word remembers how many flips its row had, so flips that
        came before the write are healed and only later ones read back.
        Bad values or addresses raise before any word is stored.
        """
        check_words(values)
        start, end = self._span(paddr, len(values))
        words = self._words
        row_flips = self._row_flips
        for row_id, _, lo, hi in self._rows(start, end):
            seen = len(row_flips.get(row_id, ()))
            row_values = values[(lo - start) >> 3 : (hi - start) >> 3]
            words.update(zip(range(lo, hi, 8), zip(row_values, repeat(seen))))

    def read_words(self, paddr: int, count: int) -> list[int]:
        """Read ``count`` consecutive 64-bit words from ``paddr`` on.

        An unwritten word reads as :data:`DEFAULT_FILL_WORD`; each flip its
        row took after the word's last write is XORed in.
        """
        start, end = self._span(paddr, count)
        get = self._words.get
        unwritten = (DEFAULT_FILL_WORD, 0)
        out: list[int] = []
        for row_id, row_base, lo, hi in self._rows(start, end):
            flips = self._row_flips.get(row_id)
            if not flips:
                out += [get(word, unwritten)[0] for word in range(lo, hi, 8)]
                continue
            # Bit ``b`` of the row is bit ``b % 64`` of the word at column
            # ``(b // 64) * 8``; ``index`` is the flip's place in the row's
            # history, which a word's ``seen`` count is compared against.
            by_word: dict[int, list[tuple[int, int]]] = {}
            for index, flip in enumerate(flips):
                word = row_base + (flip.bit_offset >> 6 << 3)
                if lo <= word < hi:
                    by_word.setdefault(word, []).append((index, flip.bit_offset & 63))
            for word in range(lo, hi, 8):
                value, seen = get(word, unwritten)
                for index, bit in by_word.get(word, ()):
                    if index >= seen:
                        value ^= 1 << bit
                out.append(value)
        return out

    def write_word(self, paddr: int, value: int) -> None:
        """Store a 64-bit word; rewriting a word heals prior flips in it."""
        self.write_words(paddr, (value,))

    def read_word(self, paddr: int) -> int:
        """Read a 64-bit word, applying flips newer than the last write."""
        return self.read_words(paddr, 1)[0]

    # -- flip queries ----------------------------------------------------------------

    def flips(self) -> list[BitFlip]:
        return list(self.tracker.flips)

    def flips_in_row(self, coord: DramCoord) -> list[BitFlip]:
        return list(self._row_flips.get(self.row_id(coord), ()))

    def flip_count(self) -> int:
        return self.tracker.flip_count()

    def weakest_rows_in_bank(self, rank: int, bank: int, count: int = 1) -> list[int]:
        """Row numbers (within the bank) with the lowest flip thresholds —
        what an attacker's templating pass would target."""
        base = (rank * self.config.banks_per_rank + bank) * self.config.rows_per_bank
        # Skip the bank-edge rows so both neighbours exist.
        ids = range(base + 1, base + self.config.rows_per_bank - 1)
        weakest = self.cells.weakest_rows(ids, count)
        return [row_id - base for row_id in weakest]

    def row_threshold(self, coord: DramCoord) -> float:
        """Disturbance units needed to flip the first bit of this row."""
        return self.cells.threshold_for(self.row_id(coord))
