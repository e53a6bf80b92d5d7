"""The ANVIL "kernel module": installation facade and reporting.

Mirrors the artifact's lifecycle: load the module (``install``), let it
run its detection loop off timers and PMU interrupts while any workload
executes, then read its statistics (``stats``/``report``) or unload it
(``uninstall``).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..sim.machine import Machine
from .config import AnvilConfig
from .detector import AnvilDetector
from .stats import AnvilStats


@dataclass
class AnvilReport:
    """Human-oriented summary of a protected run."""

    config_name: str
    elapsed_ms: float
    detections: int
    first_detection_ms: float | None
    selective_refreshes: int
    refreshes_per_64ms: float
    refreshes_per_second: float
    stage1_windows: int
    stage1_trigger_fraction: float
    samples_collected: int
    overhead_cycles: int


class AnvilModule:
    """ANVIL bound to one machine."""

    def __init__(
        self,
        machine: Machine,
        config: AnvilConfig | None = None,
        name: str = "ANVIL-baseline",
    ) -> None:
        self.machine = machine
        self.config = config or AnvilConfig.baseline()
        self.name = name
        self.stats = AnvilStats()
        self.detector = AnvilDetector(machine, self.config, self.stats)
        self.installed = False

    def install(self) -> None:
        """Start the detection loop at the machine's current time."""
        if self.installed:
            return
        self.stats.installed_at_cycles = self.machine.cycles
        self.detector.start(self.machine)
        self.installed = True

    def uninstall(self) -> None:
        if not self.installed:
            return
        self.detector.stop(self.machine)
        self.installed = False

    # -- reporting ----------------------------------------------------------------

    def first_detection_ms(self) -> float | None:
        cycles = self.stats.first_detection_cycles()
        if cycles is None:
            return None
        return self.machine.clock.ms_from_cycles(cycles)

    def report(self) -> AnvilReport:
        clock = self.machine.clock
        elapsed = self.machine.cycles - self.stats.installed_at_cycles
        per_64ms = self.stats.refreshes_per_interval(
            clock.cycles_from_ms(64.0), elapsed
        )
        triggers = (
            self.stats.stage1_triggers / self.stats.stage1_windows
            if self.stats.stage1_windows
            else 0.0
        )
        return AnvilReport(
            config_name=self.name,
            elapsed_ms=clock.ms_from_cycles(elapsed),
            detections=self.stats.detection_count,
            first_detection_ms=self.first_detection_ms(),
            selective_refreshes=self.stats.selective_refreshes,
            refreshes_per_64ms=per_64ms,
            refreshes_per_second=self.stats.refreshes_per_second(
                elapsed, clock.freq_hz
            ),
            stage1_windows=self.stats.stage1_windows,
            stage1_trigger_fraction=triggers,
            samples_collected=self.stats.samples_collected,
            overhead_cycles=self.machine.overhead_cycles,
        )
