"""Cache replacement policies.

The CLFLUSH-free rowhammer attack (paper Section 2.2) works by steering the
last-level cache's replacement state so that exactly the aggressor address
(plus one sacrificial conflict address) misses on every loop iteration.  The
paper reverse-engineers Sandy Bridge and finds it favours *Bit-PLRU*, "which
is similar to the Not Recently Used (NRU) replacement policy".  We implement
Bit-PLRU plus several alternatives so the replacement-policy probe
(:mod:`repro.attacks.policy_probe`) has a candidate library to correlate
against, exactly as the authors "built different cache replacement policy
simulators".

All policies share a tiny interface driven by the owning cache set:

- ``on_hit(way)`` — the line in ``way`` was accessed and hit.
- ``on_fill(way)`` — a new line was just installed into ``way``.
- ``victim()`` — choose the way to evict (all ways valid).
- ``on_invalidate(way)`` — the line was removed (CLFLUSH / back-invalidate).
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod

from ..errors import ConfigError


class ReplacementPolicy(ABC):
    """Replacement state for a single cache set."""

    def __init__(self, ways: int) -> None:
        if ways <= 0:
            raise ConfigError(f"ways must be positive, got {ways}")
        self.ways = ways

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

    def reset(self) -> None:
        """Restore the just-constructed state (used by the policy probe)."""
        self.__init__(self.ways)  # type: ignore[misc]


class TrueLru(ReplacementPolicy):
    """Textbook least-recently-used.

    Implemented with monotonic touch stamps: O(1) on access, O(ways) only
    on victim selection (i.e. on evictions).
    """

    def __init__(self, ways: int) -> None:
        super().__init__(ways)
        # Stamp order encodes recency; -1 marks invalidated ways, which
        # are preferred victims.
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
        # An invalidated way becomes the preferred victim.
        self._stamps[way] = -1


class BitPlru(ReplacementPolicy):
    """Bit-PLRU as described in the paper (Section 2.2):

    "each cache line in a set has a single MRU bit.  Every time a cache line
    is accessed, its MRU bit is set.  The least-recently used cache line is
    the line with the lowest index whose MRU bit is cleared.  When the last
    MRU bit is set, the other MRU bits in the set are cleared."
    """

    def __init__(self, ways: int) -> None:
        super().__init__(ways)
        self.mru = [False] * ways

    def _mark(self, way: int) -> None:
        self.mru[way] = True
        if all(self.mru):
            # Clear every other bit, keep only the just-accessed line MRU.
            self.mru = [False] * self.ways
            self.mru[way] = True

    def on_hit(self, way: int) -> None:
        self._mark(way)

    def on_fill(self, way: int) -> None:
        self._mark(way)

    def victim(self) -> int:
        for way, bit in enumerate(self.mru):
            if not bit:
                return way
        # Unreachable: _mark() never leaves all bits set.
        return 0

    def on_invalidate(self, way: int) -> None:
        self.mru[way] = False


class Nru(ReplacementPolicy):
    """Not-Recently-Used: like Bit-PLRU, but eviction scans from a rotating
    pointer instead of always from way 0, and the accessed line's bit is the
    only one kept on saturation."""

    def __init__(self, ways: int) -> None:
        super().__init__(ways)
        self.ref = [False] * ways
        self._hand = 0

    def _mark(self, way: int) -> None:
        self.ref[way] = True
        if all(self.ref):
            self.ref = [False] * self.ways
            self.ref[way] = True

    def on_hit(self, way: int) -> None:
        self._mark(way)

    def on_fill(self, way: int) -> None:
        self._mark(way)

    def victim(self) -> int:
        for offset in range(self.ways):
            way = (self._hand + offset) % self.ways
            if not self.ref[way]:
                self._hand = (way + 1) % self.ways
                return way
        return self._hand

    def on_invalidate(self, way: int) -> None:
        self.ref[way] = False


class TreePlru(ReplacementPolicy):
    """Binary-tree pseudo-LRU (requires a power-of-two way count)."""

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

    def on_hit(self, way: int) -> None:
        self._touch(way)

    def on_fill(self, way: int) -> None:
        self._touch(way)

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


class RandomReplacement(ReplacementPolicy):
    """Uniform random victim selection with a seeded, per-set stream."""

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
        self._rng = random.Random(self._seed)


class Srrip(ReplacementPolicy):
    """Static re-reference interval prediction (Jaleel et al., ISCA'10),
    the paper's citation [20] for modern replacement; 2-bit RRPV."""

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
    """Construct a replacement policy by name.

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
