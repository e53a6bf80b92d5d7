"""Attack framework: preparation, execution, and result reporting.

Every attack follows the Table 1 protocol: prepare (allocate a buffer,
resolve rows, build eviction state), then emit an infinite stream of
operations the simulated machine executes until the first bit flip or a
time budget expires.  :class:`AttackResult` carries the two quantities
Table 1 reports — the minimum number of DRAM row accesses to induce a
flip, and the time to the first flip — plus diagnostics.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Iterator

from ..dram import DramCoord
from ..sim.machine import Machine
from ..sim.ops import Op
from ..units import MB


@dataclass
class AttackResult:
    """Outcome of one attack run."""

    name: str
    elapsed_ms: float
    iterations: int
    total_dram_accesses: int
    flips: int
    time_to_first_flip_ms: float | None = None
    #: Row accesses until the first flip, using the paper's counting
    #: convention for each attack (see ``accesses_per_unit``).
    min_row_accesses: int | None = None
    ns_per_iteration: float | None = None
    llc_misses: int = 0
    details: dict = field(default_factory=dict)

    @property
    def flipped(self) -> bool:
        return self.flips > 0


class RowhammerAttack(ABC):
    """Base class for the three Table 1 attacks."""

    #: Human-readable attack name (Table 1 row label).
    name: str = "abstract"

    #: Table 1 counts "DRAM row accesses"; one disturbance unit on the
    #: victim corresponds to this many counted accesses (2 for the
    #: single-sided attack, whose dummy-row accesses count but do not
    #: disturb the victim).
    accesses_per_unit: float = 1.0

    def __init__(
        self,
        buffer_bytes: int = 256 * MB,
        seed: int = 0,
        use_templating_oracle: bool = True,
    ) -> None:
        self.buffer_bytes = buffer_bytes
        self.seed = seed
        self.use_templating_oracle = use_templating_oracle
        self.prepared = False
        self.iterations_emitted = 0
        self._aggressors: list[DramCoord] = []
        self._victims: list[DramCoord] = []

    # -- to implement -----------------------------------------------------------

    @abstractmethod
    def _build(self, machine: Machine) -> None:
        """Resolve target rows and construct per-attack state."""

    @abstractmethod
    def iteration_ops(self) -> list[Op]:
        """The operations of one steady-state hammer iteration."""

    # -- common machinery ----------------------------------------------------------

    def prepare(self, machine: Machine) -> None:
        """Allocate the attack buffer and build targeting state."""
        if self.prepared:
            return
        self._build(machine)
        self.prepared = True

    @property
    def aggressor_coords(self) -> list[DramCoord]:
        return list(self._aggressors)

    @property
    def victim_coords(self) -> list[DramCoord]:
        return list(self._victims)

    def ops(self) -> Iterator[Op]:
        """Infinite hammer stream (``prepare`` must have run)."""
        if not self.prepared:
            raise RuntimeError("call prepare(machine) before ops()")
        iteration = self.iteration_ops()
        while True:
            self.iterations_emitted += 1
            yield from iteration

    def run(
        self,
        machine: Machine,
        max_ms: float = 200.0,
        stop_on_flip: bool = True,
        check_every: int = 64,
    ) -> AttackResult:
        """Hammer until the first bit flip (if ``stop_on_flip``) or until
        ``max_ms`` of machine time elapses.

        The hammer runs on :meth:`Machine.run_fast
        <repro.sim.machine.Machine.run_fast>`, the bit-identical twin of
        the reference ``Machine.run``; the flip check runs every
        ``check_every`` ops."""
        self.prepare(machine)
        clock = machine.clock
        device = machine.memory.device
        start_cycles = machine.cycles
        start_flip_idx = len(device.tracker.flips)
        start_iterations = self.iterations_emitted

        until = None
        if stop_on_flip:
            until = lambda m: len(device.tracker.flips) > start_flip_idx  # noqa: E731

        run = machine.run_fast(
            self.ops(),
            max_cycles=clock.cycles_from_ms(max_ms),
            until=until,
            check_every=check_every,
        )

        iterations = self.iterations_emitted - start_iterations
        elapsed_cycles = machine.cycles - start_cycles
        new_flips = device.tracker.flips[start_flip_idx:]
        result = AttackResult(
            name=self.name,
            elapsed_ms=clock.ms_from_cycles(elapsed_cycles),
            iterations=iterations,
            total_dram_accesses=run.dram_accesses,
            flips=len(new_flips),
            llc_misses=run.llc_misses,
            ns_per_iteration=(
                clock.ns_from_cycles(elapsed_cycles) / iterations if iterations else None
            ),
        )
        if new_flips:
            first = new_flips[0]
            result.time_to_first_flip_ms = clock.ms_from_cycles(
                first.time_cycles - start_cycles
            )
            result.min_row_accesses = int(
                round(first.units_at_flip * self.accesses_per_unit)
            )
            result.details["first_flip_row_id"] = first.row_id
            result.details["first_flip_bit"] = first.bit_offset
        return result
