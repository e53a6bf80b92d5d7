"""The PMU facade: event counters plus the PEBS sampler.

The simulated machine feeds every retiring memory access into
:meth:`Pmu.on_access`; software (ANVIL) reads counters and
enables/disables sampling — the same surface the kernel module drives
through perf MSRs.
"""

from __future__ import annotations

from ..mem import MemoryAccess
from .counters import Counter
from .events import Event
from .pebs import PebsRecord, PebsSampler, SamplerConfig


class Pmu:
    """Per-machine performance-monitoring unit."""

    def __init__(self, freq_hz: float) -> None:
        self.freq_hz = freq_hz
        self.counters: dict[Event, Counter] = {e: Counter(e) for e in Event}
        self.sampler: PebsSampler | None = None
        #: PEBS is per logical core: ops retiring on another core (the
        #: heavy-load co-runners) are sampled by that core's own facility
        #: and merged at drain time — they share the event counters but do
        #: not displace the monitored core's samples.
        self.aux_sampler: PebsSampler | None = None
        # Direct references for the per-access hot path.
        self._c_miss = self.counters[Event.LONGEST_LAT_CACHE_MISS]
        self._c_load_miss = self.counters[Event.MEM_LOAD_UOPS_MISC_RETIRED_LLC_MISS]
        self._c_store_miss = self.counters[Event.MEM_STORE_UOPS_RETIRED_LLC_MISS]
        self._c_loads = self.counters[Event.MEM_UOPS_RETIRED_ALL_LOADS]
        self._c_stores = self.counters[Event.MEM_UOPS_RETIRED_ALL_STORES]

    # -- counter access -----------------------------------------------------------

    def counter(self, event: Event) -> Counter:
        return self.counters[event]

    def read(self, event: Event) -> int:
        return self.counters[event].read()

    # -- sampling ---------------------------------------------------------------

    def configure_sampler(self, config: SamplerConfig) -> PebsSampler:
        """(Re)program the PEBS facility on every core; returns the
        monitored core's sampler."""
        self.sampler = PebsSampler(config, self.freq_hz)
        if self.aux_sampler is not None:
            self.aux_sampler = PebsSampler(
                SamplerConfig(
                    rate_hz=config.rate_hz,
                    latency_threshold_cycles=config.latency_threshold_cycles,
                    sample_loads=config.sample_loads,
                    sample_stores=config.sample_stores,
                    jitter=config.jitter,
                    seed=config.seed ^ 0xC02E,
                    arm_skip_probability=config.arm_skip_probability,
                ),
                self.freq_hz,
            )
        return self.sampler

    def enable_aux_core(self) -> None:
        """Model a second core contributing PEBS samples (heavy load)."""
        if self.aux_sampler is None:
            self.aux_sampler = PebsSampler(SamplerConfig(seed=0xC02E), self.freq_hz)

    def enable_sampling(self, time_cycles: int) -> None:
        if self.sampler is None:
            raise RuntimeError("configure_sampler() before enable_sampling()")
        self.sampler.enable(time_cycles)
        if self.aux_sampler is not None:
            self.aux_sampler.enable(time_cycles)

    def disable_sampling(self) -> None:
        if self.sampler is not None:
            self.sampler.disable()
        if self.aux_sampler is not None:
            self.aux_sampler.disable()

    def drain_samples(self) -> list[PebsRecord]:
        records: list[PebsRecord] = []
        if self.sampler is not None:
            records.extend(self.sampler.drain())
        if self.aux_sampler is not None:
            records.extend(self.aux_sampler.drain())
        return records

    # -- the event feed ------------------------------------------------------------

    def on_access(self, access: MemoryAccess, time_cycles: int) -> PebsRecord | None:
        """Update all counters/samplers for one retiring memory access.

        Returns the PEBS record if this access was sampled, so the machine
        can charge the PMI + record-drain cost to the running software.
        """
        if access.is_store:
            self._c_stores.increment()
        else:
            self._c_loads.increment()
        if access.llc_miss:
            self._c_miss.increment()
            if access.is_store:
                self._c_store_miss.increment()
            else:
                self._c_load_miss.increment()
        if self.sampler is not None and self.sampler.enabled:
            return self.sampler.offer(access, time_cycles)
        return None

    def on_access_other_core(self, access: MemoryAccess, time_cycles: int) -> None:
        """Feed an op retiring on another core: shared event counters,
        but that core's own PEBS facility (no PMI cost charged to the
        monitored core's workload)."""
        if access.is_store:
            self._c_stores.increment()
        else:
            self._c_loads.increment()
        if access.llc_miss:
            self._c_miss.increment()
            if access.is_store:
                self._c_store_miss.increment()
            else:
                self._c_load_miss.increment()
        if self.aux_sampler is not None and self.aux_sampler.enabled:
            self.aux_sampler.offer(access, time_cycles)
