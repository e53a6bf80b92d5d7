"""PMU tests: counters, PEBS sampling."""

from __future__ import annotations

import pytest

from repro.mem import MemoryAccess
from repro.pmu import Counter, Event, PebsSampler, Pmu, SamplerConfig
from repro.errors import PmuError


def access(level="DRAM", latency=150, is_store=False, vaddr=0x1000) -> MemoryAccess:
    return MemoryAccess(
        vaddr=vaddr, paddr=vaddr, is_store=is_store, level=level,
        latency_cycles=latency, llc_miss=(level == "DRAM"),
    )


# -- counters ------------------------------------------------------------------


def test_counter_increments_and_reads():
    counter = Counter(Event.LONGEST_LAT_CACHE_MISS)
    counter.increment()
    counter.increment(4)
    assert counter.read() == 5


def test_counter_reset():
    counter = Counter(Event.LONGEST_LAT_CACHE_MISS)
    counter.increment(7)
    counter.reset()
    assert counter.read() == 0


# -- PEBS sampler -------------------------------------------------------------------


def make_sampler(rate_hz=1e6, loads=True, stores=False, threshold=40) -> PebsSampler:
    return PebsSampler(
        SamplerConfig(rate_hz=rate_hz, latency_threshold_cycles=threshold,
                      sample_loads=loads, sample_stores=stores),
        freq_hz=2.6e9,
    )


def test_sampler_disabled_by_default():
    sampler = make_sampler()
    assert sampler.offer(access(), 10_000_000) is None


def test_sampler_records_missing_load():
    sampler = make_sampler()
    sampler.enable(0)
    record = sampler.offer(access(latency=150), 10_000_000)
    assert record is not None
    assert record.data_source.value == "DRAM"


def test_sampler_skips_fast_loads():
    """Loads under the latency threshold (cache hits) are not recorded —
    ANVIL 'only sample[s] loads that miss in the L3 cache'."""
    sampler = make_sampler()
    sampler.enable(0)
    assert sampler.offer(access(level="L3", latency=29), 10_000_000) is None


def test_sampler_paces_by_time():
    sampler = make_sampler(rate_hz=5000)  # one sample per ~520K cycles
    sampler.enable(0)
    taken = sum(
        sampler.offer(access(), t) is not None
        for t in range(0, 2_600_000, 200)  # 1 ms of back-to-back misses
    )
    assert 3 <= taken <= 8  # ~5 samples per ms at 5 kHz


def test_sampler_store_facility():
    sampler = make_sampler(loads=False, stores=True)
    sampler.enable(0)
    assert sampler.offer(access(is_store=False), 10_000_000) is None
    record = sampler.offer(access(is_store=True), 20_000_000)
    assert record is not None and record.is_store


def test_sampler_store_misses_only():
    sampler = make_sampler(loads=False, stores=True)
    sampler.enable(0)
    assert sampler.offer(access(level="L2", latency=12, is_store=True), 10_000_000) is None


def test_sampler_drain_clears():
    sampler = make_sampler()
    sampler.enable(0)
    sampler.offer(access(), 10_000_000)
    assert len(sampler.drain()) == 1
    assert sampler.drain() == []


def test_sampler_config_validation():
    with pytest.raises(PmuError):
        SamplerConfig(rate_hz=0)
    with pytest.raises(PmuError):
        SamplerConfig(sample_loads=False, sample_stores=False)


# -- PMU facade ------------------------------------------------------------------------


def test_pmu_counts_loads_stores_and_misses():
    pmu = Pmu(2.6e9)
    pmu.on_access(access(is_store=False), 0)
    pmu.on_access(access(is_store=True), 0)
    pmu.on_access(access(level="L1", latency=4), 0)
    assert pmu.read(Event.LONGEST_LAT_CACHE_MISS) == 2
    assert pmu.read(Event.MEM_LOAD_UOPS_MISC_RETIRED_LLC_MISS) == 1
    assert pmu.read(Event.MEM_STORE_UOPS_RETIRED_LLC_MISS) == 1
    assert pmu.read(Event.MEM_UOPS_RETIRED_ALL_LOADS) == 2


def test_pmu_sampling_round_trip():
    pmu = Pmu(2.6e9)
    pmu.configure_sampler(SamplerConfig(rate_hz=1e6))
    pmu.enable_sampling(0)
    pmu.on_access(access(), 10_000_000)
    assert len(pmu.drain_samples()) == 1
    pmu.disable_sampling()
    pmu.on_access(access(), 20_000_000)
    assert pmu.drain_samples() == []


def test_pmu_enable_without_configure_raises():
    pmu = Pmu(2.6e9)
    with pytest.raises(RuntimeError):
        pmu.enable_sampling(0)
