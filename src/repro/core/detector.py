"""The two-stage detection state machine (paper Figure 2, Section 3.3).

Stage 1 ("miss-rate gate"): read the LLC miss counter over ``tc``; if the
window's misses reach ``LLC_MISS_THRESHOLD``, an attack is *possible* and
stage 2 arms.  Stage 2 ("locality check"): PEBS-sample LLC-missing memory
operations for ``ts``, resolve the samples to DRAM rows, run the locality
analysis, and protect any identified victims.  Either way the detector
then returns to stage 1.

Facility selection (Section 3.3): if retired load misses are more than
90% of all LLC misses in the stage-1 window, only loads are sampled; below
10%, only stores; otherwise both.
"""

from __future__ import annotations

from ..errors import TranslationError
from ..pmu import Event, SamplerConfig
from ..sim.machine import Machine
from .config import AnvilConfig
from .refresher import SelectiveRefresher
from .sampler import RowKey, analyze_row_samples
from .stats import AnvilStats, Detection


class AnvilDetector:
    """Timer-driven detector; drive via :class:`repro.core.AnvilModule`.

    It keeps no reference to its machine: the machine holds the detector's
    timer callbacks, which receive the machine, and :meth:`start` and
    :meth:`stop` take it from the caller, so a dropped machine is freed
    without waiting for the cyclic garbage collector.
    """

    def __init__(self, machine: Machine, config: AnvilConfig, stats: AnvilStats):
        self.config = config
        self.stats = stats
        self._running = False
        self._tc_cycles = machine.clock.cycles_from_ms(config.tc_ms)
        self._ts_cycles = machine.clock.cycles_from_ms(config.ts_ms)
        self._miss_counter = machine.pmu.counter(Event.LONGEST_LAT_CACHE_MISS)
        self._load_miss_counter = machine.pmu.counter(
            Event.MEM_LOAD_UOPS_MISC_RETIRED_LLC_MISS
        )
        self._refresher = SelectiveRefresher(config)
        self._window_start_misses = 0
        self._window_start_load_misses = 0

    # -- lifecycle -----------------------------------------------------------

    def start(self, machine: Machine) -> None:
        self._running = True
        self._begin_stage1(machine)

    def stop(self, machine: Machine) -> None:
        self._running = False
        machine.pmi_cost_cycles = 0
        machine.pmu.disable_sampling()

    # -- stage 1 ----------------------------------------------------------------

    def _begin_stage1(self, machine: Machine) -> None:
        if not self._running:
            return
        self._window_start_misses = self._miss_counter.read()
        self._window_start_load_misses = self._load_miss_counter.read()
        machine.schedule_in(self._tc_cycles, self._end_stage1)

    def _end_stage1(self, machine: Machine) -> None:
        if not self._running:
            return
        machine.consume(self.config.stage1_cost_cycles, overhead=True)
        self.stats.stage1_windows += 1
        misses = self._miss_counter.read() - self._window_start_misses
        if misses >= self.config.llc_miss_threshold:
            self.stats.stage1_triggers += 1
            self._begin_stage2(machine)
        else:
            self._begin_stage1(machine)

    # -- stage 2 ----------------------------------------------------------------

    def _facility_choice(self) -> tuple[bool, bool]:
        """(sample_loads, sample_stores) from the stage-1 miss mix."""
        misses = self._miss_counter.read() - self._window_start_misses
        load_misses = self._load_miss_counter.read() - self._window_start_load_misses
        if misses <= 0:
            return True, True
        load_fraction = load_misses / misses
        if load_fraction > self.config.load_only_fraction:
            return True, False
        if load_fraction < self.config.store_only_fraction:
            return False, True
        return True, True

    def _begin_stage2(self, machine: Machine) -> None:
        sample_loads, sample_stores = self._facility_choice()
        machine.pmu.configure_sampler(
            SamplerConfig(
                rate_hz=self.config.sampling_rate_hz,
                latency_threshold_cycles=self.config.latency_threshold_cycles,
                sample_loads=sample_loads,
                sample_stores=sample_stores,
                seed=7 + self.stats.stage2_windows,
                # System-wide sampling: all cores' memory ops compete
                # fairly for PEBS slots.
                arm_skip_probability=0.5,
            )
        )
        machine.pmu.enable_sampling(machine.cycles)
        machine.pmi_cost_cycles = self.config.pmi_cost_cycles
        machine.consume(self.config.stage2_setup_cost_cycles, overhead=True)
        self._window_start_misses = self._miss_counter.read()
        machine.schedule_in(self._ts_cycles, self._end_stage2)

    def _end_stage2(self, machine: Machine) -> None:
        if not self._running:
            return
        machine.pmi_cost_cycles = 0
        machine.pmu.disable_sampling()
        machine.consume(self.config.stage2_setup_cost_cycles, overhead=True)
        self.stats.stage2_windows += 1
        window_misses = self._miss_counter.read() - self._window_start_misses

        samples = machine.pmu.drain_samples()
        self.stats.samples_collected += len(samples)
        rows: list[RowKey] = []
        memsys = machine.memory
        for sample in samples:
            try:
                coord = memsys.row_of_vaddr(sample.vaddr)
            except TranslationError:
                self.stats.untranslatable_samples += 1
                continue
            rows.append((coord.rank, coord.bank, coord.row))

        analysis = analyze_row_samples(rows, window_misses, self.config)
        if analysis.attack_detected:
            victims = self._refresher.victims_of(machine, analysis.aggressors)
            refreshed = self._refresher.refresh(machine, victims)
            self.stats.selective_refreshes += refreshed
            self.stats.refresh_times_cycles.extend([machine.cycles] * refreshed)
            self.stats.detections.append(
                Detection(
                    time_cycles=machine.cycles,
                    aggressors=tuple(analysis.aggressors),
                    refreshed_rows=tuple(victims),
                )
            )
        self._begin_stage1(machine)
