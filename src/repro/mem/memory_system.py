"""The unified memory system: V->P translation, caches, DRAM.

This is the surface the simulated machine executes loads and stores
against.  Each access:

1. translates the virtual address (simple page-table walk; translation
   *cost* is folded into the per-level latencies, but results are memoised
   in a software TLB on :class:`~repro.mem.virtual.VirtualMemory`, which
   the fast-path engine queries directly);
2. walks the inclusive cache hierarchy;
3. on an LLC miss, performs the DRAM access through the memory controller
   (which applies refresh blocking and runs defense observers);
4. reports a :class:`MemoryAccess` record consumed by the PMU and by
   statistics.

The system also enforces machine-wide policy switches used by the
experiments: whether CLFLUSH is permitted (sandbox mitigation) and whether
``/proc/pagemap`` is restricted (kernel mitigation).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from ..cache import CacheHierarchy, HierarchyConfig
from ..dram import DramConfig, DramCoord, MemoryController
from ..dram.device import check_words
from ..errors import ClflushRestrictedError
from ..units import Clock
from .pagemap import Pagemap
from .virtual import VirtualMemory, VmConfig


@dataclass(frozen=True)
class MemorySystemConfig:
    """Top-level memory-system wiring."""

    hierarchy: HierarchyConfig = field(default_factory=HierarchyConfig)
    dram: DramConfig = field(default_factory=DramConfig)
    page_placement: str = "scrambled"
    vm_seed: int = 42
    clflush_allowed: bool = True
    pagemap_restricted: bool = False


@dataclass(slots=True)
class MemoryAccess:
    """Everything observable about one load or store."""

    vaddr: int
    paddr: int
    is_store: bool
    level: str  # "L1" / "L2" / "L3" / "DRAM"
    latency_cycles: int
    llc_miss: bool
    coord: DramCoord | None = None  # set when the access reached DRAM
    activated: bool = False
    new_flip_count: int = 0


class MemorySystem:
    """Caches + controller + virtual memory."""

    def __init__(self, config: MemorySystemConfig | None = None, clock: Clock | None = None):
        self.config = config or MemorySystemConfig()
        self.clock = clock or Clock()
        self.hierarchy = CacheHierarchy(self.config.hierarchy)
        self.controller = MemoryController(self.config.dram, self.clock)
        capacity = self.controller.config.capacity_bytes
        self.vm = VirtualMemory(
            VmConfig(
                phys_bytes=capacity,
                placement=self.config.page_placement,
                seed=self.config.vm_seed,
                # Keep the kernel-reserved region proportionate on the
                # small modules used in tests.
                reserved_low_bytes=min(1 << 24, capacity // 8),
            )
        )
        self.pagemap = Pagemap(self.vm, restricted=self.config.pagemap_restricted)
        self.clflush_allowed = self.config.clflush_allowed
        # The VM object is permanent; bind its translate once so the
        # per-access path skips two attribute loads.
        self._translate = self.vm.translate

    @property
    def mapping(self):
        return self.controller.mapping

    @property
    def device(self):
        return self.controller.device

    # -- the timed access path ----------------------------------------------------

    def access(self, vaddr: int, time_cycles: int, is_store: bool = False) -> MemoryAccess:
        """Execute one load or store; returns the full access record."""
        paddr = self._translate(vaddr)
        return self.access_phys(paddr, time_cycles, is_store=is_store, vaddr=vaddr)

    def access_phys(
        self, paddr: int, time_cycles: int, is_store: bool = False, vaddr: int | None = None
    ) -> MemoryAccess:
        """Access by physical address (kernel-mode path, used by ANVIL's
        selective refresh reads and by physically addressed tests)."""
        result = self.hierarchy.access(paddr, is_store)
        if result.llc_miss:
            dram = self.controller.access(paddr, time_cycles + result.latency_cycles, is_store)
            return MemoryAccess(
                vaddr=vaddr if vaddr is not None else paddr,
                paddr=paddr,
                is_store=is_store,
                level="DRAM",
                latency_cycles=result.latency_cycles + dram.latency_cycles,
                llc_miss=True,
                coord=dram.coord,
                activated=dram.activated,
                new_flip_count=dram.new_flip_count,
            )
        return MemoryAccess(
            vaddr=vaddr if vaddr is not None else paddr,
            paddr=paddr,
            is_store=is_store,
            level=result.level,
            latency_cycles=result.latency_cycles,
            llc_miss=False,
        )

    def clflush(self, vaddr: int, time_cycles: int) -> int:
        """Flush one line from all cache levels; returns instruction cost.

        Raises :class:`ClflushRestrictedError` when the machine disallows
        CLFLUSH (the NaCl-style mitigation the paper's CLFLUSH-free attack
        side-steps).
        """
        del time_cycles  # flush has no DRAM-side timing interaction here
        if not self.clflush_allowed:
            raise ClflushRestrictedError("CLFLUSH is disallowed on this machine")
        paddr = self._translate(vaddr)
        return self.hierarchy.clflush(paddr)

    # -- untimed architectural data access ------------------------------------------

    def _page_runs(self, vaddr: int, count: int) -> list[tuple[int, int]]:
        """``(paddr, words)`` per page of ``count`` words from ``vaddr``,
        translating every page (and so raising on an unmapped one) first."""
        page_bytes = self.vm.config.page_bytes
        runs = []
        addr = vaddr & ~0x7
        end = addr + 8 * count
        while addr < end:
            stop = min(end, (addr | (page_bytes - 1)) + 1)
            runs.append((self._translate(addr), (stop - addr) >> 3))
            addr = stop
        return runs

    def write_words(self, vaddr: int, values: Sequence[int]) -> None:
        """Store consecutive 64-bit words from ``vaddr`` on, one DRAM write
        per page; every page is translated and every value checked before
        any word is stored."""
        runs = self._page_runs(vaddr, len(values))
        check_words(values)
        write = self.controller.device.write_words
        first = 0
        for paddr, count in runs:
            write(paddr, values[first : first + count])
            first += count

    def read_words(self, vaddr: int, count: int) -> list[int]:
        """Read ``count`` consecutive 64-bit words from ``vaddr`` on, one
        DRAM read per page."""
        read = self.controller.device.read_words
        out: list[int] = []
        for paddr, words in self._page_runs(vaddr, count):
            out += read(paddr, words)
        return out

    def write_word(self, vaddr: int, value: int) -> None:
        self.write_words(vaddr, (value,))

    def read_word(self, vaddr: int) -> int:
        return self.read_words(vaddr, 1)[0]

    # -- convenience -------------------------------------------------------------------

    def row_of_vaddr(self, vaddr: int) -> DramCoord:
        """DRAM coordinates of a virtual address (via real translation,
        the kernel-side path ANVIL uses after sampling)."""
        return self.mapping.decode(self.vm.translate(vaddr))

    def flip_count(self) -> int:
        return self.controller.flip_count()
