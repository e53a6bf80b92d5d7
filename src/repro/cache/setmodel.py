"""Standalone single-set cache model.

The paper's authors reverse-engineered Sandy Bridge's replacement policy by
correlating hardware miss counters "with results from different cache
replacement policy simulators that we built" (Section 2.2).  This class is
that simulator: one cache set driven by a symbolic address stream,
returning the hit/miss outcome of every access.  It is also used to plan
and verify the CLFLUSH-free attack's eviction pattern.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Sequence

from .replacement import HIT, make_policy


class SetModel:
    """One ``ways``-associative cache set under a chosen policy: the same
    set object a :class:`~repro.cache.cache.Cache` holds per set, driven
    by symbolic tags."""

    def __init__(self, policy: str, ways: int, seed: int = 0):
        self.cache_set = make_policy(policy, ways, seed=seed)
        self.ways = ways

    def access(self, tag: Hashable) -> bool:
        """Access ``tag``; returns True on hit (filling on miss)."""
        return self.cache_set.touch(tag) is HIT

    def run(self, stream: Iterable[Hashable]) -> list[bool]:
        """Hit/miss outcome for each access in ``stream``."""
        return [self.access(tag) for tag in stream]

    def contains(self, tag: Hashable) -> bool:
        return tag in self.cache_set


def steady_state_misses(
    policy: str,
    ways: int,
    pattern: Sequence[Hashable],
    iterations: int = 40,
    stable_tail: int = 8,
    seed: int = 0,
) -> tuple[Hashable, ...] | None:
    """Repeat ``pattern`` and return the per-iteration missing tags once
    the miss set is periodic with period one, or None if it never settles.

    This is the planning primitive behind the CLFLUSH-free attack: a good
    pattern settles to exactly the aggressor plus one sacrificial conflict
    address missing per iteration.
    """
    model = SetModel(policy, ways, seed=seed)
    per_iteration: list[tuple[Hashable, ...]] = []
    for _ in range(iterations):
        misses = tuple(tag for tag in pattern if not model.access(tag))
        per_iteration.append(misses)
    tail = per_iteration[-stable_tail:]
    if all(t == tail[0] for t in tail):
        return tail[0]
    return None
