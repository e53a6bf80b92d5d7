"""The memory controller: the single entry point from the cache hierarchy
to DRAM.

Responsibilities:

- translate physical addresses through the reverse-engineered
  :class:`~repro.dram.mapping.AddressMapping`;
- charge refresh-blocking delays (a refresh command holds the device for
  tRFC out of every tREFI);
- host **activation observers** — controller-level defenses such as PARA
  and counter-based TRR register here and may request neighbour refreshes
  on any activation;
- expose :meth:`refresh_row` used by ANVIL's selective-refresh protection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Protocol

from ..units import Clock
from .config import DramConfig
from .device import DramDevice, RowAccess
from .mapping import DramCoord


class ActivationObserver(Protocol):
    """Controller-level defense hook (PARA, TRR...).

    Contract: the fast engine calls it inline, in the middle of a batch,
    while the machine clock, the PMU counts and the cache, controller and
    device statistics may still be deferred.  So an observer reads only
    its arguments and its own state, acts only through the rows it
    returns, and registers no hook, observer or timer.
    """

    def on_activation(self, coord: DramCoord, time_cycles: int) -> Iterable[DramCoord]:
        """Called on every row activation.  Returns rows the controller
        should refresh in response (may be empty)."""
        ...


class RowFilter(Protocol):
    """A defense that can serve accesses without touching the array
    (ARMOR's hot-row buffer).

    Same contract as :class:`ActivationObserver`: called inline while the
    clock, PMU counts and statistics may be deferred, it reads only its
    arguments and its own state and registers no hook, observer or timer.
    """

    def absorbs(self, coord: DramCoord, time_cycles: int) -> bool:
        """True if this access is served by the defense's buffer: the row
        is neither activated nor its neighbours disturbed."""
        ...


@dataclass(slots=True)
class DramAccess:
    """Controller-level outcome of a DRAM access."""

    coord: DramCoord
    row_hit: bool
    activated: bool
    latency_cycles: int
    blocked_cycles: int
    new_flip_count: int


@dataclass
class ControllerStats:
    accesses: int = 0
    total_latency_cycles: int = 0
    blocked_cycles: int = 0
    observer_refreshes: int = 0
    selective_refreshes: int = 0


class MemoryController:
    """Schedules demand accesses and defense refreshes onto the device."""

    def __init__(self, config: DramConfig | None = None, clock: Clock | None = None):
        self.clock = clock or Clock()
        self._build(config)
        self._observers: list[ActivationObserver] = []
        self._row_filters: list[RowFilter] = []

    def _build(self, config: DramConfig | None) -> None:
        """A fresh device (with its mapping and config) and statistics."""
        self.device = DramDevice(config, self.clock)
        self.mapping = self.device.mapping
        self.config = self.device.config
        self.stats = ControllerStats()

    def add_observer(self, observer: ActivationObserver) -> None:
        """Register a controller-level defense."""
        self._observers.append(observer)

    def remove_observer(self, observer: ActivationObserver) -> None:
        self._observers.remove(observer)

    def add_row_filter(self, row_filter: RowFilter) -> None:
        """Register a buffer-style defense that can absorb accesses."""
        self._row_filters.append(row_filter)

    def remove_row_filter(self, row_filter: RowFilter) -> None:
        self._row_filters.remove(row_filter)

    # -- demand path -------------------------------------------------------------

    def access(self, paddr: int, time_cycles: int, is_store: bool = False) -> DramAccess:
        """One demand access that missed the whole cache hierarchy."""
        del is_store  # loads and stores cost the same at the device
        blocked = self.device.refresh_engine.blocking_delay(time_cycles)
        coord = self.mapping.decode(paddr)
        for row_filter in self._row_filters:
            if row_filter.absorbs(coord, time_cycles + blocked):
                # Served from the defense's buffer: fast, no activation,
                # no disturbance.
                latency = self.device.config.timings.row_hit_cycles(self.clock)
                self.stats.accesses += 1
                self.stats.total_latency_cycles += latency
                return DramAccess(
                    coord=coord,
                    row_hit=True,
                    activated=False,
                    latency_cycles=latency,
                    blocked_cycles=0,
                    new_flip_count=0,
                )
        outcome: RowAccess = self.device.access(coord, time_cycles + blocked)
        if outcome.activated and self._observers:
            self._run_observers(coord, time_cycles + blocked)
        self.stats.accesses += 1
        latency = outcome.latency_cycles + blocked
        self.stats.total_latency_cycles += latency
        self.stats.blocked_cycles += blocked
        return DramAccess(
            coord=coord,
            row_hit=outcome.row_hit,
            activated=outcome.activated,
            latency_cycles=latency,
            blocked_cycles=blocked,
            new_flip_count=len(outcome.new_flips),
        )

    def _run_observers(self, coord: DramCoord, time_cycles: int) -> None:
        for observer in self._observers:
            for victim in observer.on_activation(coord, time_cycles):
                # Defense refreshes run in controller slack; they restore
                # charge but are not charged to the demand access.
                self.device.refresh_row(victim, time_cycles)
                self.stats.observer_refreshes += 1

    # -- protection path ------------------------------------------------------------

    def refresh_row(self, coord: DramCoord, time_cycles: int) -> int:
        """Refresh one row by reading it (ANVIL Section 3.2: "Reading from
        a row opens that row which has the effect of refreshing cells in
        the row").  Returns the access latency in cycles."""
        latency = self.device.refresh_row(coord, time_cycles)
        self.stats.selective_refreshes += 1
        return latency

    def refresh_neighbors(self, coord: DramCoord, time_cycles: int, radius: int = 1) -> int:
        """Refresh the rows adjacent to ``coord`` (the potential victims of
        an aggressor).  Returns total latency."""
        total = 0
        for victim in self.mapping.neighbors(coord, radius):
            total += self.refresh_row(victim, time_cycles)
        return total

    # -- convenience ------------------------------------------------------------------

    def flip_count(self) -> int:
        return self.device.flip_count()

    def set_timings(self, timings) -> None:
        """Swap in new timing parameters (refresh-rate defenses).

        Must be called before any accesses are simulated.  Rebuilds the
        device; registered observers and row filters stay registered.
        """
        if self.stats.accesses:
            raise RuntimeError("cannot retime a controller that has run traffic")
        self._build(self.config.with_timings(timings))
