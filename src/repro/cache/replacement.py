"""Cache sets and their replacement policies.

The CLFLUSH-free rowhammer attack (paper Section 2.2) works by steering the
last-level cache's replacement state so that exactly the aggressor address
(plus one sacrificial conflict address) misses on every loop iteration.  The
paper reverse-engineers Sandy Bridge and finds it favours *Bit-PLRU*, "which
is similar to the Not Recently Used (NRU) replacement policy".  We implement
Bit-PLRU plus several alternatives so the replacement-policy probe
(:mod:`repro.attacks.policy_probe`) has a candidate library to correlate
against, exactly as the authors "built different cache replacement policy
simulators".

Each policy object *is* one cache set: it holds the set's resident tags
and its replacement state, and one call decides lookup, fill and victim:

- ``touch(tag)`` — access ``tag``: :data:`HIT` if it was resident (the
  replacement state records the hit), else it is installed and the call
  returns :data:`FILLED` (a free slot took it) or the evicted tag;
- ``discard(tag)`` — drop ``tag`` (CLFLUSH, back-invalidation); True if it
  was resident;
- ``tag in s`` — residency, with no state change;
- ``resident()`` — the resident tags.

:class:`TrueLru` keeps its tags in recency order.  Every other policy is
way-indexed (:class:`WayIndexedSet`): one ``touch``/``discard`` over a
``tags`` list and a ``tag -> way`` dict fills the lowest free way first
and drives the policy's per-way hooks ``on_hit(way)``, ``on_fill(way)``,
``victim()`` (all ways valid) and ``on_invalidate(way)``.

Tags are any hashables (the planning model uses symbolic tags, among them
negative ints), so :data:`HIT` and :data:`FILLED` are sentinel objects,
compared with ``is``.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import Hashable

from ..errors import ConfigError


class _Outcome:
    """A :meth:`ReplacementPolicy.touch` result that is not an evicted tag."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def __repr__(self) -> str:
        return self.name


#: ``touch`` found the tag resident.
HIT = _Outcome("HIT")
#: ``touch`` installed the tag without evicting anything.
FILLED = _Outcome("FILLED")


class ReplacementPolicy(ABC):
    """One cache set of ``ways`` lines under a replacement policy."""

    __slots__ = ("ways",)

    def __init__(self, ways: int) -> None:
        if ways <= 0:
            raise ConfigError(f"ways must be positive, got {ways}")
        self.ways = ways

    @abstractmethod
    def touch(self, tag: Hashable) -> object:
        """Access ``tag``: :data:`HIT`, :data:`FILLED` or the evicted tag."""

    @abstractmethod
    def discard(self, tag: Hashable) -> bool:
        """Drop ``tag`` if resident; True if it was."""

    @abstractmethod
    def __contains__(self, tag: Hashable) -> bool:
        """Residency check (no replacement-state update)."""

    @abstractmethod
    def resident(self) -> list:
        """The resident tags."""

    def reset(self) -> None:
        """Empty the set and restore its just-constructed state."""
        self.__init__(self.ways)  # type: ignore[misc]


class TrueLru(ReplacementPolicy):
    """Textbook least-recently-used.

    The resident tags are kept in recency order, least recent first: a hit
    moves its tag to the end, a fill appends, and a fill into a full set
    evicts the head.
    """

    __slots__ = ("_order",)

    def __init__(self, ways: int) -> None:
        super().__init__(ways)
        self._order: list = []

    def touch(self, tag: Hashable) -> object:
        order = self._order
        if tag in order:
            if order[-1] != tag:
                order.remove(tag)
                order.append(tag)
            return HIT
        order.append(tag)
        if len(order) > self.ways:
            return order.pop(0)
        return FILLED

    def discard(self, tag: Hashable) -> bool:
        if tag in self._order:
            self._order.remove(tag)
            return True
        return False

    def __contains__(self, tag: Hashable) -> bool:
        return tag in self._order

    def resident(self) -> list:
        return list(self._order)


class WayIndexedSet(ReplacementPolicy):
    """A set whose policy keeps per-way state.

    ``tags`` holds one tag per way (None when the way is free) and a
    ``tag -> way`` dict finds it; :meth:`touch` and :meth:`discard` call
    the subclass's per-way hooks.
    """

    __slots__ = ("tags", "_way_of")

    def __init__(self, ways: int) -> None:
        super().__init__(ways)
        self.tags: list = [None] * ways
        self._way_of: dict = {}

    def touch(self, tag: Hashable) -> object:
        way_of = self._way_of
        way = way_of.get(tag)
        if way is not None:
            self.on_hit(way)
            return HIT
        tags = self.tags
        if len(way_of) < self.ways:
            way = tags.index(None)
            outcome = FILLED
        else:
            way = self.victim()
            outcome = tags[way]
            del way_of[outcome]
        tags[way] = tag
        way_of[tag] = way
        self.on_fill(way)
        return outcome

    def discard(self, tag: Hashable) -> bool:
        way = self._way_of.pop(tag, None)
        if way is None:
            return False
        self.tags[way] = None
        self.on_invalidate(way)
        return True

    def __contains__(self, tag: Hashable) -> bool:
        return tag in self._way_of

    def resident(self) -> list:
        return [tag for tag in self.tags if tag is not None]

    @abstractmethod
    def on_hit(self, way: int) -> None:
        """Record a hit on ``way``."""

    @abstractmethod
    def on_fill(self, way: int) -> None:
        """Record installation of a new line into ``way``."""

    @abstractmethod
    def victim(self) -> int:
        """Return the way index to evict from a full set."""

    def on_invalidate(self, way: int) -> None:  # noqa: B027 - optional hook
        """Record invalidation of ``way`` (default: no state change)."""


class BitPlru(WayIndexedSet):
    """Bit-PLRU as described in the paper (Section 2.2):

    "each cache line in a set has a single MRU bit.  Every time a cache line
    is accessed, its MRU bit is set.  The least-recently used cache line is
    the line with the lowest index whose MRU bit is cleared.  When the last
    MRU bit is set, the other MRU bits in the set are cleared."
    """

    __slots__ = ("mru",)

    def __init__(self, ways: int) -> None:
        super().__init__(ways)
        self.mru = [False] * ways

    def _mark(self, way: int) -> None:
        self.mru[way] = True
        if all(self.mru):
            # Clear every other bit, keep only the just-accessed line MRU.
            self.mru = [False] * self.ways
            self.mru[way] = True

    on_hit = on_fill = _mark

    def victim(self) -> int:
        for way, bit in enumerate(self.mru):
            if not bit:
                return way
        # Unreachable: _mark() never leaves all bits set.
        return 0

    def on_invalidate(self, way: int) -> None:
        self.mru[way] = False


class Nru(WayIndexedSet):
    """Not-Recently-Used: like Bit-PLRU, but eviction scans from a rotating
    pointer instead of always from way 0, and the accessed line's bit is the
    only one kept on saturation."""

    __slots__ = ("ref", "_hand")

    def __init__(self, ways: int) -> None:
        super().__init__(ways)
        self.ref = [False] * ways
        self._hand = 0

    def _mark(self, way: int) -> None:
        self.ref[way] = True
        if all(self.ref):
            self.ref = [False] * self.ways
            self.ref[way] = True

    on_hit = on_fill = _mark

    def victim(self) -> int:
        for offset in range(self.ways):
            way = (self._hand + offset) % self.ways
            if not self.ref[way]:
                self._hand = (way + 1) % self.ways
                return way
        return self._hand

    def on_invalidate(self, way: int) -> None:
        self.ref[way] = False


class TreePlru(WayIndexedSet):
    """Binary-tree pseudo-LRU (requires a power-of-two way count)."""

    __slots__ = ("_bits",)

    def __init__(self, ways: int) -> None:
        super().__init__(ways)
        if ways & (ways - 1):
            raise ConfigError(f"tree-plru requires power-of-two ways, got {ways}")
        # Internal nodes of a complete binary tree, 1-indexed like a heap.
        self._bits = [False] * ways  # nodes 1 .. ways-1 used

    def _touch(self, way: int) -> None:
        # Walk from root to leaf, pointing each node away from the path.
        node = 1
        span = self.ways
        lo = 0
        while span > 1:
            span //= 2
            go_right = way >= lo + span
            self._bits[node] = not go_right  # point to the *other* side
            node = 2 * node + (1 if go_right else 0)
            if go_right:
                lo += span

    on_hit = on_fill = _touch

    def victim(self) -> int:
        node = 1
        span = self.ways
        lo = 0
        while span > 1:
            span //= 2
            go_right = self._bits[node]
            node = 2 * node + (1 if go_right else 0)
            if go_right:
                lo += span
        return lo


class RandomReplacement(WayIndexedSet):
    """Uniform random victim selection with a seeded, per-set stream."""

    __slots__ = ("_seed", "_rng")

    def __init__(self, ways: int, seed: int = 0) -> None:
        super().__init__(ways)
        self._seed = seed
        self._rng = random.Random(seed)

    def on_hit(self, way: int) -> None:
        pass

    def on_fill(self, way: int) -> None:
        pass

    def victim(self) -> int:
        return self._rng.randrange(self.ways)

    def reset(self) -> None:
        self.__init__(self.ways, self._seed)


class Srrip(WayIndexedSet):
    """Static re-reference interval prediction (Jaleel et al., ISCA'10),
    the paper's citation [20] for modern replacement; 2-bit RRPV."""

    __slots__ = ("rrpv",)

    MAX_RRPV = 3
    INSERT_RRPV = 2

    def __init__(self, ways: int) -> None:
        super().__init__(ways)
        self.rrpv = [self.MAX_RRPV] * ways

    def on_hit(self, way: int) -> None:
        self.rrpv[way] = 0

    def on_fill(self, way: int) -> None:
        self.rrpv[way] = self.INSERT_RRPV

    def victim(self) -> int:
        while True:
            for way, value in enumerate(self.rrpv):
                if value == self.MAX_RRPV:
                    return way
            self.rrpv = [value + 1 for value in self.rrpv]

    def on_invalidate(self, way: int) -> None:
        self.rrpv[way] = self.MAX_RRPV


_POLICIES = {
    "lru": TrueLru,
    "bit-plru": BitPlru,
    "nru": Nru,
    "tree-plru": TreePlru,
    "random": RandomReplacement,
    "srrip": Srrip,
}


def policy_names() -> list[str]:
    """Names accepted by :func:`make_policy`."""
    return sorted(_POLICIES)


def make_policy(name: str, ways: int, seed: int = 0) -> ReplacementPolicy:
    """Construct one empty cache set under the policy ``name``.

    ``seed`` only affects stochastic policies (currently ``"random"``).
    """
    try:
        cls = _POLICIES[name]
    except KeyError:
        raise ConfigError(
            f"unknown replacement policy {name!r}; choose from {policy_names()}"
        ) from None
    if cls is RandomReplacement:
        return cls(ways, seed=seed)
    return cls(ways)
