"""A single set-associative, physically indexed cache level.

The cache tracks tags only — data movement is modelled elsewhere (the DRAM
device holds contents).  Lines are identified by their *line address*
(physical address >> line_bits).  The cache is write-allocate,
write-back-agnostic: stores and loads are treated identically for residency
purposes, which is all that cache-timing attacks and the PMU observe.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .config import CacheConfig
from .replacement import FILLED, HIT, ReplacementPolicy, make_policy
from .slicing import slice_of


@dataclass
class CacheStats:
    """Running hit/miss/eviction counters for one cache level."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0


@dataclass
class FillResult:
    """Outcome of installing a line: the evicted line address, if any."""

    evicted_line: int | None = None


#: Interned :meth:`Cache.access_fill` outcomes.  Hits and clean fills are by
#: far the common cases; returning shared tuples keeps the hot access path
#: allocation-free (only an eviction builds a fresh result tuple).
_HIT: tuple[bool, int | None] = (True, None)
_MISS_CLEAN: tuple[bool, int | None] = (False, None)


class Cache:
    """A set-associative cache level, possibly sliced (for the LLC)."""

    #: Upper bound on the slice-index memo.  Address-sweeping workloads
    #: touch an unbounded set of distinct lines; without a cap the memo
    #: grows without limit.  When full it is simply cleared — entries are
    #: pure functions of the line address, so dropping them only costs a
    #: recomputation.
    INDEX_MEMO_MAX = 1 << 16

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self.stats = CacheStats()
        self._line_bits = config.line_bits
        self._set_mask = config.sets_per_slice - 1
        self._n_slices = config.slices
        # Slice hashing is the expensive part of indexing; memoise the
        # global set index per line address (sliced caches only).
        self._index_memo: dict[int, int] = {}
        #: One replacement-policy object per set (it holds the set's lines).
        self._sets: list[ReplacementPolicy] = self._new_sets()

    def _new_sets(self) -> list[ReplacementPolicy]:
        config = self.config
        return [
            make_policy(config.policy, config.ways, seed=config.policy_seed + i)
            for i in range(config.sets_per_slice * config.slices)
        ]

    # -- address arithmetic -------------------------------------------------

    def line_addr(self, paddr: int) -> int:
        return paddr >> self._line_bits

    def set_index(self, paddr: int) -> int:
        """Global set index (slice-local index + slice offset)."""
        line = paddr >> self._line_bits
        if self._n_slices == 1:
            return line & self._set_mask
        index = self._index_memo.get(line)
        if index is None:
            s = slice_of(paddr, self._n_slices)
            index = s * (self._set_mask + 1) + (line & self._set_mask)
            if len(self._index_memo) >= self.INDEX_MEMO_MAX:
                self._index_memo.clear()
            self._index_memo[line] = index
        return index

    def slice_index(self, paddr: int) -> int:
        return slice_of(paddr, self._n_slices)

    def same_set(self, paddr_a: int, paddr_b: int) -> bool:
        """True if the two physical addresses contend for the same set
        (including the slice hash)."""
        return self.set_index(paddr_a) == self.set_index(paddr_b)

    # -- core operations ----------------------------------------------------

    def probe(self, paddr: int) -> bool:
        """Non-destructive residency check (no replacement-state update)."""
        return (paddr >> self._line_bits) in self._sets[self.set_index(paddr)]

    def access(self, paddr: int) -> bool:
        """Look up ``paddr``; on a hit update replacement state and return
        True.  On a miss return False *without* filling — the hierarchy
        decides when and where to fill."""
        cset = self._sets[self.set_index(paddr)]
        line = paddr >> self._line_bits
        if line in cset:
            cset.touch(line)
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        return False

    def fill(self, paddr: int) -> FillResult:
        """Install the line for ``paddr``, evicting if the set is full.

        Returns the evicted *line address* (if any) so inclusive
        hierarchies can back-invalidate inner levels.  Filling a resident
        line only touches it.
        """
        outcome = self._sets[self.set_index(paddr)].touch(paddr >> self._line_bits)
        if outcome is HIT or outcome is FILLED:
            return FillResult()
        self.stats.evictions += 1
        return FillResult(evicted_line=outcome)

    def access_fill(self, paddr: int) -> tuple[bool, int | None]:
        """Fused lookup-and-fill for the hierarchy's hot path.

        Returns ``(hit, evicted_line)``: on a hit, replacement state is
        updated and nothing is filled; on a miss, the line is installed
        (write-allocate) and the evicted line address (if any) returned.
        Equivalent to ``access()`` followed by ``fill()`` but with a
        single set lookup.
        """
        outcome = self._sets[self.set_index(paddr)].touch(paddr >> self._line_bits)
        if outcome is HIT:
            self.stats.hits += 1
            return _HIT
        self.stats.misses += 1
        if outcome is FILLED:
            return _MISS_CLEAN
        self.stats.evictions += 1
        return False, outcome

    def invalidate(self, paddr: int) -> bool:
        """Remove the line for ``paddr`` if present.  Returns True if it
        was resident (CLFLUSH, back-invalidation)."""
        if self._sets[self.set_index(paddr)].discard(paddr >> self._line_bits):
            self.stats.invalidations += 1
            return True
        return False

    def invalidate_line(self, line: int) -> bool:
        """Invalidate by line address (used for back-invalidation)."""
        return self.invalidate(line << self._line_bits)

    def flush_all(self) -> None:
        """Drop every line (used between experiment phases)."""
        self._index_memo.clear()
        self._sets = self._new_sets()

    def resident_lines(self) -> list[int]:
        """All line addresses currently cached (diagnostics/tests)."""
        return [tag for cset in self._sets for tag in cset.resident()]
