"""Cross-component property tests and remaining coverage.

Highlights: the standalone :class:`SetModel` (used to plan attacks) must
agree access-for-access with the real cache on same-set streams — the
property the Section 2.2 reverse-engineering methodology depends on.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import Cache, CacheConfig
from repro.cache.setmodel import SetModel
from repro.core.stats import AnvilStats, Detection
from repro.dram.controller import MemoryController
from repro.dram.config import DramConfig
from repro.pmu import PebsSampler, SamplerConfig
from repro.sim.trace import format_op, parse_op
from repro.units import Clock


# -- SetModel <-> Cache agreement -----------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(
    policy=st.sampled_from(["lru", "bit-plru", "nru", "srrip", "tree-plru", "random"]),
    stream=st.lists(st.integers(min_value=0, max_value=15), min_size=1, max_size=120),
)
def test_setmodel_agrees_with_real_cache(policy, stream):
    """Driving one set of a real cache and the standalone model with the
    same same-set address stream yields identical hit/miss sequences."""
    ways = 4
    cache = Cache(CacheConfig(name="T", size_bytes=ways * 8 * 64, ways=ways,
                              policy=policy))
    model = SetModel(policy, ways)
    set_stride = cache.config.sets_per_slice * 64
    for tag in stream:
        paddr = tag * set_stride  # all map to set 0
        cache_hit, _ = cache.access_fill(paddr)
        model_hit = model.access(tag)
        assert cache_hit == model_hit


# -- trace property ---------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["L", "S", "F", "M", "C", "P"]),
    a=st.integers(min_value=0, max_value=(1 << 48) - 1),
    b=st.integers(min_value=0, max_value=(1 << 48) - 1),
)
def test_trace_roundtrip_property(kind, a, b):
    if kind == "M":
        op = ("M", 0)
    elif kind == "C":
        op = ("C", a % 1_000_000)
    elif kind == "P":
        op = ("P", (a, b))
    else:
        op = (kind, a)
    assert parse_op(format_op(op)) == op


# -- PEBS pacing property ------------------------------------------------------------------


@settings(max_examples=20, deadline=None)
@given(rate=st.sampled_from([1000.0, 5000.0, 20000.0]))
def test_pebs_rate_respected_under_saturation(rate):
    """Offering an eligible op every cycle must yield ~rate samples/s."""
    from repro.mem import MemoryAccess

    sampler = PebsSampler(SamplerConfig(rate_hz=rate), freq_hz=2.6e9)
    sampler.enable(0)
    second = 2_600_000  # simulate 1 ms
    taken = 0
    for t in range(0, second, 100):
        access = MemoryAccess(vaddr=t, paddr=t, is_store=False, level="DRAM",
                              latency_cycles=150, llc_miss=True)
        if sampler.offer(access, t) is not None:
            taken += 1
    expected = rate / 1000  # samples per ms
    assert 0.4 * expected <= taken <= 2.0 * expected


# -- AnvilStats arithmetic ------------------------------------------------------------------


def make_detection(t):
    return Detection(time_cycles=t, aggressors=(), refreshed_rows=())


def test_stats_first_detection_relative_to_install():
    stats = AnvilStats(installed_at_cycles=1000)
    assert stats.first_detection_cycles() is None
    stats.detections.append(make_detection(6000))
    stats.detections.append(make_detection(9000))
    assert stats.first_detection_cycles() == 5000


def test_stats_refresh_rates():
    stats = AnvilStats()
    stats.selective_refreshes = 10
    # 10 refreshes over 2 intervals -> 5 per interval.
    assert stats.refreshes_per_interval(100, 200) == 5.0
    # 10 refreshes over 2 seconds at 1 Hz-cycle clock.
    assert stats.refreshes_per_second(2, 1.0) == 5.0
    assert stats.refreshes_per_interval(100, 0) == 0.0


# -- controller row-filter API ----------------------------------------------------------------


class AbsorbEverything:
    def __init__(self):
        self.count = 0

    def absorbs(self, coord, time_cycles):
        self.count += 1
        return True


def test_row_filter_prevents_all_disturbance():
    ctrl = MemoryController(
        DramConfig(ranks=1, banks_per_rank=4, rows_per_bank=2048, row_bytes=8192),
        Clock(),
    )
    filt = AbsorbEverything()
    ctrl.add_row_filter(filt)
    for i in range(100):
        out = ctrl.access(i * 8192 * 4, 20_000 + i * 200)
        assert not out.activated and out.row_hit
    assert ctrl.device.stats.activations == 0
    assert filt.count == 100
    ctrl.remove_row_filter(filt)
    assert ctrl.access(0, 100_000).activated


# -- epoch result arithmetic -----------------------------------------------------------------


def test_epoch_result_properties():
    from repro.sim.epoch import EpochResult

    result = EpochResult(
        benchmark="x", config_name="c", horizon_s=10.0,
        stage1_windows=100, stage1_triggers=40, stage2_windows=40,
        false_detections=2, superfluous_refreshes=4,
        overhead_cycles=1_000, total_cycles=100_000,
        dram_refresh_penalty=0.005,
    )
    assert result.trigger_fraction == 0.4
    assert result.fp_refreshes_per_sec == 0.4
    assert result.overhead_fraction == 0.01
    assert result.normalized_time == pytest.approx(1.015)


def test_epoch_result_zero_division_guards():
    from repro.sim.epoch import EpochResult

    result = EpochResult(
        benchmark="x", config_name="c", horizon_s=1.0,
        stage1_windows=0, stage1_triggers=0, stage2_windows=0,
        false_detections=0, superfluous_refreshes=0,
        overhead_cycles=0, total_cycles=0, dram_refresh_penalty=0.0,
    )
    assert result.trigger_fraction == 0.0
    assert result.overhead_fraction == 0.0


# -- attack result arithmetic ---------------------------------------------------------------


def test_attack_result_flipped_property():
    from repro.attacks import AttackResult

    clean = AttackResult(name="x", elapsed_ms=1.0, iterations=10,
                         total_dram_accesses=20, flips=0)
    dirty = AttackResult(name="x", elapsed_ms=1.0, iterations=10,
                         total_dram_accesses=20, flips=2)
    assert not clean.flipped and dirty.flipped
