"""Single-level cache tests: indexing, fills, evictions, invalidation."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import Cache, CacheConfig, HierarchyConfig
from repro.cache.slicing import slice_of
from repro.errors import ConfigError
from repro.units import KB


def tiny_cache(ways=2, sets=4, policy="lru", slices=1) -> Cache:
    return Cache(
        CacheConfig(
            name="T",
            size_bytes=ways * sets * 64 * slices,
            ways=ways,
            policy=policy,
            slices=slices,
        )
    )


# -- config validation ----------------------------------------------------------


def test_config_rejects_unaligned_size():
    with pytest.raises(ConfigError):
        CacheConfig(name="X", size_bytes=100, ways=2)


def test_config_rejects_non_power_of_two_sets():
    with pytest.raises(ConfigError):
        CacheConfig(name="X", size_bytes=3 * 64 * 2, ways=2)


def test_config_derived_geometry():
    config = CacheConfig(name="X", size_bytes=32 * KB, ways=8)
    assert config.sets_per_slice == 64
    assert config.line_bits == 6
    assert config.set_bits == 6


@pytest.mark.parametrize(
    "line_sizes", [(64, 64, 128), (64, 128, 64), (128, 64, 64), (64, 128, 128)]
)
def test_hierarchy_config_rejects_mixed_line_sizes(line_sizes):
    """Back-invalidation hands LLC line numbers to L2 and L1, so every
    level must share one line size (a chained ``!=`` let 64/64/128 by)."""
    l1, l2, llc = (
        CacheConfig(name=name, size_bytes=32 * KB, ways=8, line_bytes=line)
        for name, line in zip(("L1", "L2", "L3"), line_sizes)
    )
    with pytest.raises(ConfigError):
        HierarchyConfig(l1=l1, l2=l2, llc=llc)


# -- basic behaviour --------------------------------------------------------------


def test_miss_then_hit():
    cache = tiny_cache()
    assert not cache.access(0x1000)
    cache.fill(0x1000)
    assert cache.access(0x1000)
    assert cache.stats.hits == 1
    assert cache.stats.misses == 1


def test_same_line_different_bytes_hit():
    cache = tiny_cache()
    cache.fill(0x1000)
    assert cache.access(0x1000 + 63)


def test_fill_evicts_when_set_full():
    cache = tiny_cache(ways=2, sets=1)
    cache.fill(0 << 6)
    cache.fill(1 << 6)
    result = cache.fill(2 << 6)
    assert result.evicted_line is not None
    assert cache.stats.evictions == 1


def test_fill_prefers_invalid_way():
    cache = tiny_cache(ways=4, sets=1)
    for i in range(3):
        assert cache.fill(i << 6).evicted_line is None


def test_fill_existing_line_is_noop_touch():
    cache = tiny_cache()
    cache.fill(0x40)
    assert cache.fill(0x40).evicted_line is None
    assert len(cache.resident_lines()) == 1


def test_invalidate_removes_line():
    cache = tiny_cache()
    cache.fill(0x40)
    assert cache.invalidate(0x40)
    assert not cache.probe(0x40)
    assert not cache.invalidate(0x40)  # second time: not resident


def test_probe_does_not_update_stats_or_state():
    cache = tiny_cache()
    cache.fill(0x40)
    cache.probe(0x40)
    assert cache.stats.accesses == 0


def test_set_index_uses_line_and_set_bits():
    cache = tiny_cache(ways=2, sets=4)
    # Addresses 4 sets apart (4 * 64 bytes) map to the same set.
    assert cache.set_index(0x0) == cache.set_index(4 * 64)
    assert cache.set_index(0x0) != cache.set_index(1 * 64)


def test_flush_all_empties():
    cache = tiny_cache()
    cache.fill(0x40)
    cache.fill(0x80)
    cache.flush_all()
    assert cache.resident_lines() == []


def test_miss_rate():
    cache = tiny_cache()
    cache.access(0x40)
    cache.fill(0x40)
    cache.access(0x40)
    assert cache.stats.miss_rate == 0.5


# -- sliced caches ------------------------------------------------------------------


def test_sliced_cache_same_set_requires_same_slice():
    cache = tiny_cache(ways=2, sets=4, slices=2)
    a = 0x0
    # Find an address with the same local set bits but a different slice.
    b = next(
        addr
        for addr in range(4 * 64, 1 << 20, 4 * 64)
        if slice_of(addr, 2) != slice_of(a, 2)
    )
    assert not cache.same_set(a, b)


def test_slice_of_single_slice_is_zero():
    assert slice_of(0xDEADBEEF, 1) == 0


def test_slice_of_rejects_non_power_of_two():
    with pytest.raises(ConfigError):
        slice_of(0x1000, 3)


def test_slice_of_distributes():
    slices = {slice_of(addr << 6, 2) for addr in range(4096)}
    assert slices == {0, 1}


# -- capacity property ------------------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(lines=st.lists(st.integers(min_value=0, max_value=255), min_size=1, max_size=120))
def test_residency_never_exceeds_capacity(lines):
    cache = tiny_cache(ways=2, sets=4)
    for line in lines:
        paddr = line << 6
        if not cache.access(paddr):
            cache.fill(paddr)
    assert len(cache.resident_lines()) <= 8


@settings(max_examples=30, deadline=None)
@given(lines=st.lists(st.integers(min_value=0, max_value=255), min_size=1, max_size=60))
def test_most_recent_fill_is_resident(lines):
    cache = tiny_cache(ways=2, sets=4, policy="bit-plru")
    for line in lines:
        paddr = line << 6
        if not cache.access(paddr):
            cache.fill(paddr)
        assert cache.probe(paddr)
