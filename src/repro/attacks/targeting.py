"""Row targeting: mapping owned memory onto DRAM rows.

The attacks follow the real-world recipe (paper Section 2.3): allocate a
large buffer, use ``/proc/pagemap`` to translate its pages to physical
addresses, decode those through the (reverse-engineered) DRAM mapping, and
pick aggressor/victim rows from the rows the buffer happens to own.

Victim selection: real attackers "template" a module by hammering many
candidate triples and keeping the ones that flip fastest.  The resolver
supports both that interface (an arbitrary scoring callable) and a
convenience oracle backed by the simulated cell population, which stands
in for a prior templating campaign without simulating hours of scanning.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..dram import DramCoord
from ..errors import EvictionSetError
from ..mem import MemorySystem


@dataclass(frozen=True)
class HammerTriple:
    """A double-sided hammer target: victim row and both aggressors.

    All virtual addresses lie inside attacker-owned memory.
    """

    bank_key: tuple[int, int]  # (rank, bank)
    victim_row: int
    victim_vaddr: int
    aggressor_low_vaddr: int  # row victim_row - 1
    aggressor_high_vaddr: int  # row victim_row + 1


class RowResolver:
    """Resolves attacker-owned virtual pages to DRAM rows."""

    def __init__(self, memsys: MemorySystem, privileged: bool = False) -> None:
        self.memsys = memsys
        self.privileged = privileged
        #: (rank, bank, row) -> first owned vaddr in that row
        self.rows: dict[tuple[int, int, int], int] = {}

    def scan_buffer(self, base_vaddr: int, length: int) -> int:
        """Translate every page of ``[base, base+length)`` and index it by
        DRAM row.  Returns the number of distinct rows discovered.

        Raises :class:`~repro.errors.PagemapRestrictedError` when the
        pagemap mitigation is active and the caller is unprivileged.
        """
        page = self.memsys.vm.config.page_bytes
        offset = base_vaddr & (page - 1)
        frames = self.memsys.pagemap.frames(
            base_vaddr, length, privileged=self.privileged
        )
        row_key = self.memsys.mapping.row_key
        rows = self.rows
        for vaddr, frame in zip(range(base_vaddr, base_vaddr + length, page), frames):
            rows.setdefault(row_key(frame | offset), vaddr)
        return len(rows)

    # -- queries -------------------------------------------------------------

    def vaddr_in_row(self, rank: int, bank: int, row: int) -> int | None:
        """An owned virtual address inside the given row, if any."""
        return self.rows.get((rank, bank, row))

    def owned_triples(self) -> list[HammerTriple]:
        """All (victim-1, victim, victim+1) row triples fully owned by the
        attacker, grouped per bank."""
        triples = []
        for (rank, bank, row), victim_vaddr in self.rows.items():
            low = self.rows.get((rank, bank, row - 1))
            high = self.rows.get((rank, bank, row + 1))
            if low is not None and high is not None:
                triples.append(
                    HammerTriple(
                        bank_key=(rank, bank),
                        victim_row=row,
                        victim_vaddr=victim_vaddr,
                        aggressor_low_vaddr=low,
                        aggressor_high_vaddr=high,
                    )
                )
        return triples

    def choose_triple(
        self, score: Callable[[HammerTriple], float] | None = None
    ) -> HammerTriple:
        """Pick the hammer target.

        ``score`` maps a triple to a figure of merit (lower is better);
        by default the first triple in bank order is used.  Pass
        :meth:`templating_oracle` to model a completed templating scan.
        """
        triples = self.owned_triples()
        if not triples:
            raise EvictionSetError(
                "no fully owned aggressor/victim row triple; allocate a "
                "larger buffer"
            )
        if score is None:
            return min(
                triples, key=lambda t: (t.bank_key, t.victim_row)
            )
        return min(triples, key=score)

    def templating_oracle(self) -> Callable[[HammerTriple], float]:
        """A scoring callable that ranks triples by the victim row's flip
        threshold — the outcome a real attacker obtains by templating the
        module (hammering every candidate and timing the first flip)."""
        device = self.memsys.device
        mapping = self.memsys.mapping

        def score(triple: HammerTriple) -> float:
            rank, bank = triple.bank_key
            coord = DramCoord(rank=rank, bank=bank, row=triple.victim_row, col=0)
            return device.row_threshold(coord)

        del mapping  # decode not needed: coordinates are explicit
        return score

    def far_row_vaddr(self, bank_key: tuple[int, int], away_from: int, min_distance: int = 64) -> int:
        """An owned address in the same bank at least ``min_distance`` rows
        from ``away_from`` — the dummy row a single-sided attack uses to
        force the row buffer closed."""
        rank, bank = bank_key
        for (r, b, row), vaddr in self.rows.items():
            if (r, b) == (rank, bank) and abs(row - away_from) >= min_distance:
                return vaddr
        raise EvictionSetError("no owned far row in the target bank")
