"""Configuration dataclasses for the cache hierarchy.

Defaults model the paper's test machine, an Intel i5-2540M (Sandy Bridge):
32 KB 8-way L1D, 256 KB 8-way L2, and a 3 MB 12-way inclusive LLC split
into two slices (one per core).  The paper (Section 2.2) reports that bits
6..16 of the physical address select the LLC set and that Sandy Bridge
favours Bit-PLRU replacement in the LLC.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ConfigError
from ..units import KB, MB, is_power_of_two, log2_exact


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and timing of one cache level.

    ``latency_cycles`` is the *total* load-to-use latency of a hit served
    by this level (Intel optimization-manual convention: L1 4, L2 12,
    LLC 26..31 cycles) — not an additive per-level increment.
    """

    name: str
    size_bytes: int
    ways: int
    line_bytes: int = 64
    latency_cycles: int = 4
    policy: str = "lru"
    slices: int = 1
    policy_seed: int = 0

    def __post_init__(self) -> None:
        if self.size_bytes <= 0 or self.ways <= 0 or self.slices <= 0:
            raise ConfigError(f"{self.name}: sizes/ways/slices must be positive")
        if not is_power_of_two(self.line_bytes):
            raise ConfigError(f"{self.name}: line size must be a power of two")
        if self.size_bytes % (self.ways * self.line_bytes * self.slices):
            raise ConfigError(
                f"{self.name}: size {self.size_bytes} not divisible by "
                f"ways*line*slices"
            )
        if not is_power_of_two(self.sets_per_slice):
            raise ConfigError(f"{self.name}: set count must be a power of two")

    @property
    def sets_per_slice(self) -> int:
        return self.size_bytes // (self.ways * self.line_bytes * self.slices)

    @property
    def line_bits(self) -> int:
        return log2_exact(self.line_bytes)

    @property
    def set_bits(self) -> int:
        return log2_exact(self.sets_per_slice)


def sandy_bridge_l1() -> CacheConfig:
    """32 KB, 8-way, 4-cycle L1 data cache."""
    return CacheConfig(name="L1", size_bytes=32 * KB, ways=8, latency_cycles=4)


def sandy_bridge_l2() -> CacheConfig:
    """256 KB, 8-way, 12-cycle private L2."""
    return CacheConfig(name="L2", size_bytes=256 * KB, ways=8, latency_cycles=12)


def sandy_bridge_llc() -> CacheConfig:
    """3 MB, 12-way, 2-slice inclusive LLC with Bit-PLRU replacement.

    29 cycles is the midpoint of the 26..31-cycle LLC access range the
    paper quotes from the Intel optimization manual [16].
    """
    return CacheConfig(
        name="L3",
        size_bytes=3 * MB,
        ways=12,
        latency_cycles=29,
        policy="bit-plru",
        slices=2,
    )


@dataclass(frozen=True)
class HierarchyConfig:
    """The full three-level hierarchy plus instruction-cost constants."""

    l1: CacheConfig = field(default_factory=sandy_bridge_l1)
    l2: CacheConfig = field(default_factory=sandy_bridge_l2)
    llc: CacheConfig = field(default_factory=sandy_bridge_llc)
    clflush_cycles: int = 24
    mfence_cycles: int = 30
    #: Controller/queueing cycles added to every LLC miss on top of the
    #: LLC lookup and the DRAM device time (calibrates the ~150-cycle
    #: DRAM access the paper quotes in Section 2.2).
    miss_overhead_cycles: int = 10

    def __post_init__(self) -> None:
        if not self.l1.line_bytes == self.l2.line_bytes == self.llc.line_bytes:
            # Back-invalidation hands LLC line numbers to L1 and L2.
            raise ConfigError("all cache levels must share a line size")
        if self.clflush_cycles < 0 or self.mfence_cycles < 0:
            raise ConfigError("instruction costs must be non-negative")
        if self.miss_overhead_cycles < 0:
            raise ConfigError("miss overhead must be non-negative")

    @property
    def line_bytes(self) -> int:
        return self.llc.line_bytes
