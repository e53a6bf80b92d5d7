"""Selective refresh of potential victim rows (paper Section 3.2).

"When the detector identifies potential rowhammering activity, it
identifies the potential victim DRAM rows.  Victim rows are adjacent to
(preceding and following) identified aggressor rows.  To protect the
victim rows we refresh them by reading a word from them."

The refresher issues the reads through the memory controller's kernel
path and charges their latency to the machine as detector overhead —
which is why even false-positive detections are "innocuous in that they
incur only a small number of extra DRAM read operations".
"""

from __future__ import annotations

from ..dram import DramCoord
from ..sim.machine import Machine
from .config import AnvilConfig
from .sampler import DetectedAggressor, RowKey


class SelectiveRefresher:
    """Reads the neighbours of detected aggressor rows on the machine its
    caller passes (it keeps none)."""

    def __init__(self, config: AnvilConfig) -> None:
        self.config = config

    def victims_of(
        self, machine: Machine, aggressors: list[DetectedAggressor]
    ) -> list[RowKey]:
        """Potential victim rows: within ``victim_radius`` of any
        aggressor, deduplicated, excluding the aggressors themselves
        (they are refreshed by the attack's own activations)."""
        aggressor_keys = {a.row_key for a in aggressors}
        rows_per_bank = machine.memory.mapping.config.rows_per_bank
        victims: list[RowKey] = []
        seen: set[RowKey] = set()
        for aggressor in aggressors:
            rank, bank, row = aggressor.row_key
            for delta in range(-self.config.victim_radius, self.config.victim_radius + 1):
                if delta == 0:
                    continue
                victim_row = row + delta
                if not 0 <= victim_row < rows_per_bank:
                    continue
                key = (rank, bank, victim_row)
                if key in seen or key in aggressor_keys:
                    continue
                seen.add(key)
                victims.append(key)
        return victims

    def refresh(self, machine: Machine, victims: list[RowKey]) -> int:
        """Read one word from each victim row; returns rows refreshed.

        The read latency is charged to the machine as overhead, modelling
        the kernel thread performing the reads inline.
        """
        controller = machine.memory.controller
        for rank, bank, row in victims:
            coord = DramCoord(rank=rank, bank=bank, row=row, col=0)
            latency = controller.refresh_row(coord, machine.cycles)
            machine.consume(latency, overhead=True)
        return len(victims)
