"""Replacement-policy unit and property tests."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.replacement import (
    FILLED,
    HIT,
    BitPlru,
    Nru,
    RandomReplacement,
    Srrip,
    TreePlru,
    TrueLru,
    make_policy,
    policy_names,
)
from repro.errors import ConfigError

ALL_POLICIES = policy_names()


# -- construction ------------------------------------------------------------------


def test_policy_names_lists_all():
    assert set(ALL_POLICIES) == {
        "lru", "bit-plru", "nru", "tree-plru", "random", "srrip"
    }


@pytest.mark.parametrize("name", ALL_POLICIES)
def test_make_policy_constructs(name):
    ways = 8  # power of two: valid for every policy
    policy = make_policy(name, ways)
    assert policy.ways == ways


def test_make_policy_unknown_name():
    with pytest.raises(ConfigError):
        make_policy("clock", 8)


def test_tree_plru_requires_power_of_two():
    with pytest.raises(ConfigError):
        TreePlru(12)


def test_zero_ways_rejected():
    with pytest.raises(ConfigError):
        TrueLru(0)


# -- true LRU -------------------------------------------------------------------


def test_lru_evicts_least_recently_used():
    lru = TrueLru(4)
    for tag in range(4):
        assert lru.touch(tag) is FILLED
    assert lru.touch(0) is HIT  # order now: 1, 2, 3, 0
    assert lru.touch(4) == 1
    assert lru.resident() == [2, 3, 0, 4]


def test_lru_invalidate_becomes_preferred_victim():
    """A discarded line's slot is refilled before anything is evicted."""
    lru = TrueLru(4)
    for tag in range(4):
        lru.touch(tag)
    assert lru.discard(3)
    assert not lru.discard(3)
    assert lru.touch(4) is FILLED
    assert sorted(lru.resident()) == [0, 1, 2, 4]


# -- Bit-PLRU ---------------------------------------------------------------------


def test_bit_plru_sets_mru_on_access():
    plru = BitPlru(4)
    plru.on_fill(2)
    assert plru.mru == [False, False, True, False]


def test_bit_plru_victim_is_lowest_clear_index():
    plru = BitPlru(4)
    plru.on_fill(0)
    plru.on_fill(2)
    assert plru.victim() == 1


def test_bit_plru_saturation_clears_others():
    """Paper: 'When the last MRU bit is set, the other MRU bits in the set
    are cleared.'"""
    plru = BitPlru(4)
    for way in range(4):
        plru.on_fill(way)
    assert plru.mru == [False, False, False, True]
    assert plru.victim() == 0


def test_bit_plru_invalidate_clears_bit():
    plru = BitPlru(4)
    plru.on_fill(0)
    plru.on_invalidate(0)
    assert plru.victim() == 0


# -- NRU ---------------------------------------------------------------------------


def test_nru_hand_advances():
    nru = Nru(4)
    nru.on_fill(0)
    first = nru.victim()
    assert first == 1  # hand started at 0, way 0 is referenced
    second = nru.victim()
    assert second == 2  # hand moved past the previous victim


def test_nru_saturation_keeps_last_accessed():
    nru = Nru(4)
    for way in range(4):
        nru.on_fill(way)
    assert nru.ref == [False, False, False, True]


# -- Tree-PLRU ------------------------------------------------------------------------


def test_tree_plru_victim_valid_and_changes():
    tree = TreePlru(8)
    v1 = tree.victim()
    tree.on_fill(v1)
    v2 = tree.victim()
    assert v1 != v2
    assert 0 <= v2 < 8


def test_tree_plru_points_away_from_touched_leaf():
    tree = TreePlru(4)
    tree.on_hit(3)
    assert tree.victim() != 3


# -- SRRIP -----------------------------------------------------------------------------


def test_srrip_hit_promotes_to_zero():
    srrip = Srrip(4)
    srrip.on_fill(1)
    srrip.on_hit(1)
    assert srrip.rrpv[1] == 0


def test_srrip_victim_prefers_max_rrpv():
    srrip = Srrip(4)
    for way in range(4):
        srrip.on_fill(way)
    srrip.on_hit(0)
    victim = srrip.victim()
    assert victim != 0


def test_srrip_ages_when_no_max():
    srrip = Srrip(2)
    srrip.on_fill(0)
    srrip.on_fill(1)
    srrip.on_hit(0)
    srrip.on_hit(1)
    assert srrip.victim() in (0, 1)  # aging loop terminated


# -- random -----------------------------------------------------------------------------


def test_random_is_seeded_deterministic():
    a = RandomReplacement(8, seed=3)
    b = RandomReplacement(8, seed=3)
    assert [a.victim() for _ in range(20)] == [b.victim() for _ in range(20)]


def test_random_reset_restores_stream():
    a = RandomReplacement(8, seed=3)
    first = [a.victim() for _ in range(10)]
    a.reset()
    assert [a.victim() for _ in range(10)] == first


# -- properties shared by every policy ------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(ALL_POLICIES),
    ways_exp=st.integers(min_value=1, max_value=4),
    events=st.lists(st.tuples(st.sampled_from(["hit", "fill", "inv"]),
                              st.integers(min_value=0, max_value=15)),
                    max_size=60),
)
def test_victim_always_in_range(name, ways_exp, events):
    ways = 2 ** ways_exp
    policy = make_policy(name, ways)
    if name == "lru":
        # TrueLru has no ways: its victim is an evicted tag, which must
        # have been resident, and the set never exceeds its ways.
        for kind, tag in events:
            before = policy.resident()
            if kind == "inv":
                policy.discard(tag)
            else:
                outcome = policy.touch(tag)
                if outcome is not HIT and outcome is not FILLED:
                    assert outcome in before
            assert len(policy.resident()) <= ways
        return
    for kind, raw_way in events:
        way = raw_way % ways
        if kind == "hit":
            policy.on_hit(way)
        elif kind == "fill":
            policy.on_fill(way)
        else:
            policy.on_invalidate(way)
        assert 0 <= policy.victim() < ways


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(["lru", "bit-plru", "nru", "tree-plru", "srrip"]),
    ways_exp=st.integers(min_value=2, max_value=4),
    touched=st.integers(min_value=0, max_value=15),
)
def test_just_touched_way_is_not_victim(name, ways_exp, touched):
    """For every deterministic policy, the way touched last (below
    saturation) must not be the immediate victim."""
    ways = 2 ** ways_exp
    policy = make_policy(name, ways)
    if name == "lru":
        # Through touch: fill the set, touch one line, then force an
        # eviction.
        for tag in range(ways):
            policy.touch(tag)
        policy.touch(touched % ways)
        assert policy.touch(ways) != touched % ways
        return
    policy.on_fill(touched % ways)
    assert policy.victim() != touched % ways


# -- set-level oracle --------------------------------------------------------------------
#
# The per-set walk and the stamp-based LRU as they were before each policy
# object held its set's tags, copied here as the reference every policy's
# ``touch``/``discard`` must match call for call.


class _StampLru:
    """Former ``TrueLru``: per-way touch stamps, victim = oldest stamp."""

    def __init__(self, ways: int) -> None:
        self._stamps = list(range(ways))
        self._clock = ways

    def on_hit(self, way: int) -> None:
        self._stamps[way] = self._clock
        self._clock += 1

    def on_fill(self, way: int) -> None:
        self._stamps[way] = self._clock
        self._clock += 1

    def victim(self) -> int:
        stamps = self._stamps
        return stamps.index(min(stamps))

    def on_invalidate(self, way: int) -> None:
        self._stamps[way] = -1


class _ReferenceSet:
    """Former ``_CacheSet`` with the ``Cache.access_fill`` and
    ``Cache.invalidate`` walk over it."""

    def __init__(self, ways: int, policy) -> None:
        self.tags = [None] * ways
        self.policy = policy
        self.lookup = {}  # tag -> way

    def touch(self, tag):
        lookup = self.lookup
        way = lookup.get(tag)
        if way is not None:
            self.policy.on_hit(way)
            return HIT
        tags = self.tags
        if len(lookup) < len(tags):
            way = tags.index(None)
            tags[way] = tag
            lookup[tag] = way
            self.policy.on_fill(way)
            return FILLED
        way = self.policy.victim()
        evicted = tags[way]
        del lookup[evicted]
        tags[way] = tag
        lookup[tag] = way
        self.policy.on_fill(way)
        return evicted

    def discard(self, tag) -> bool:
        way = self.lookup.pop(tag, None)
        if way is None:
            return False
        self.tags[way] = None
        self.policy.on_invalidate(way)
        return True


def reference_set(name: str, ways: int, seed: int) -> _ReferenceSet:
    # Every other policy kept its per-way hooks: drive a second instance's.
    hooks = _StampLru(ways) if name == "lru" else make_policy(name, ways, seed=seed)
    return _ReferenceSet(ways, hooks)


@settings(max_examples=150, deadline=None)
@given(
    name=st.sampled_from(ALL_POLICIES),
    ways_exp=st.integers(min_value=0, max_value=3),
    seed=st.integers(min_value=0, max_value=3),
    data=st.data(),
)
def test_set_matches_reference_walk(name, ways_exp, seed, data):
    """Random touch/discard streams over up to 3x ways tags (including
    the tag -1): every return value and the resident set after every
    step match the reference."""
    ways = 2 ** ways_exp
    cache_set = make_policy(name, ways, seed=seed)
    reference = reference_set(name, ways, seed)
    tags = st.integers(min_value=-1, max_value=3 * ways - 2)
    steps = data.draw(
        st.lists(st.tuples(st.sampled_from(["touch"] * 3 + ["discard"]), tags),
                 max_size=80)
    )
    for kind, tag in steps:
        if kind == "touch":
            got, want = cache_set.touch(tag), reference.touch(tag)
        else:
            got, want = cache_set.discard(tag), reference.discard(tag)
        assert got == want
        resident = [t for t in reference.tags if t is not None]
        assert sorted(cache_set.resident()) == sorted(resident)
        assert all((t in cache_set) == (t in reference.lookup) for t in range(-1, 3 * ways))
