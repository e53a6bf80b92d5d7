"""Physical-address <-> DRAM coordinate mapping.

ANVIL "was pre-configured using a reverse engineered physical address to
DRAM row and bank mapping scheme" and assumes "sequentially numbered rows
are physically adjacent" (paper Section 3.3).  This module *is* that
scheme for the simulated controller: low bits address the column within a
row, then bank, then rank, then row — a standard open-page-friendly layout
for a single-channel controller.

Layout for the default 4 GB module (64 B cache lines):

    bit 0 ........ 12 | 13 .. 15 | 16   | 17 ............ 31
    column (8 KB row) | bank (8) | rank | row (32768/bank)

An optional XOR bank hash (``row_low ^ bank``) models controllers that
permute banks to spread row-conflict traffic.
"""

from __future__ import annotations

from typing import NamedTuple

from ..errors import AddressError
from ..units import log2_exact
from .config import DramConfig


class DramCoord(NamedTuple):
    """A decoded DRAM location."""

    rank: int
    bank: int
    row: int
    col: int

    @property
    def bank_key(self) -> tuple[int, int]:
        """Hashable (rank, bank) pair identifying a physical bank."""
        return (self.rank, self.bank)


class AddressMapping:
    """Bidirectional physical-address/DRAM-coordinate translation."""

    def __init__(self, config: DramConfig) -> None:
        self.config = config
        self._col_bits = log2_exact(config.row_bytes)
        self._bank_bits = log2_exact(config.banks_per_rank)
        self._rank_bits = log2_exact(config.ranks)
        self._row_bits = log2_exact(config.rows_per_bank)
        self._bank_shift = self._col_bits
        self._rank_shift = self._bank_shift + self._bank_bits
        self._row_shift = self._rank_shift + self._rank_bits
        self._col_mask = config.row_bytes - 1
        self._bank_mask = config.banks_per_rank - 1
        self._rank_mask = config.ranks - 1
        self._row_mask = config.rows_per_bank - 1
        self.capacity = config.capacity_bytes

    # -- decode ---------------------------------------------------------------

    def decode(self, paddr: int) -> DramCoord:
        """Translate a physical address to (rank, bank, row, col)."""
        if not 0 <= paddr < self.capacity:
            raise AddressError(
                f"physical address {paddr:#x} outside module ({self.capacity:#x})"
            )
        rank, bank, row = self.row_key(paddr)
        return DramCoord(rank, bank, row, paddr & self._col_mask)

    def row_key(self, paddr: int) -> tuple[int, int, int]:
        """``(rank, bank, row)`` of ``paddr``: :meth:`decode` without the
        column or the range check."""
        bank = (paddr >> self._bank_shift) & self._bank_mask
        rank = (paddr >> self._rank_shift) & self._rank_mask
        row = (paddr >> self._row_shift) & self._row_mask
        if self.config.xor_bank_hash:
            bank ^= row & self._bank_mask
        return rank, bank, row

    # -- encode ---------------------------------------------------------------

    def encode(self, coord: DramCoord) -> int:
        """Translate DRAM coordinates back to a physical address."""
        rank, bank, row, col = coord
        if not 0 <= row < self.config.rows_per_bank:
            raise AddressError(f"row {row} out of range")
        if not 0 <= bank < self.config.banks_per_rank:
            raise AddressError(f"bank {bank} out of range")
        if not 0 <= rank < self.config.ranks:
            raise AddressError(f"rank {rank} out of range")
        if not 0 <= col < self.config.row_bytes:
            raise AddressError(f"column {col} out of range")
        if self.config.xor_bank_hash:
            bank ^= row & (self.config.banks_per_rank - 1)
        return (
            (row << self._row_shift)
            | (rank << self._rank_shift)
            | (bank << self._bank_shift)
            | col
        )

    # -- convenience ----------------------------------------------------------

    def row_of(self, paddr: int) -> int:
        return self.decode(paddr).row

    def same_bank(self, paddr_a: int, paddr_b: int) -> bool:
        a, b = self.decode(paddr_a), self.decode(paddr_b)
        return a.bank_key == b.bank_key

    def neighbors(self, coord: DramCoord, radius: int = 1) -> list[DramCoord]:
        """Rows within ``radius`` of ``coord`` in the same bank, in
        physical-adjacency order (assuming sequential rows are adjacent)."""
        rows = []
        for delta in range(-radius, radius + 1):
            if delta == 0:
                continue
            row = coord.row + delta
            if 0 <= row < self.config.rows_per_bank:
                rows.append(
                    DramCoord(rank=coord.rank, bank=coord.bank, row=row, col=0)
                )
        return rows

    def address_in_row(self, rank: int, bank: int, row: int, col: int = 0) -> int:
        """A physical address inside the given row (column ``col``)."""
        return self.encode(DramCoord(rank=rank, bank=bank, row=row, col=col))

    def global_row_id(self, coord: DramCoord) -> int:
        """Dense per-module row index used by the disturbance tracker."""
        bank_index = coord.rank * self.config.banks_per_rank + coord.bank
        return bank_index * self.config.rows_per_bank + coord.row
