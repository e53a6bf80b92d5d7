"""Simulated virtual memory: page allocation and address translation.

The CLFLUSH-free attack needs physical addresses to build LLC eviction sets
and to find aggressor rows; it obtains them "using the Linux /proc/pagemap
utility to convert virtual addresses to physical addresses" (Section 2.3).
This module provides the page tables that utility reads.

Physical pages are handed out by a configurable strategy:

- ``"sequential"`` — pages are physically contiguous (fresh boot, THP);
- ``"scrambled"`` — a deterministic pseudo-random permutation of frames
  (a fragmented machine), which is what makes pagemap *necessary* for the
  attacker.  The permutation is drawn as frames are handed out: each frame
  :meth:`VirtualMemory.mmap` takes costs one Fisher–Yates step, so a
  machine pays (in time and memory) only for the pages it allocates, yet
  gets the frames a ``random.Random(seed).shuffle`` of the whole free list
  would give.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator

from ..errors import AllocationError, ConfigError, TranslationError
from ..units import is_power_of_two

PAGE_SIZE = 4096


@dataclass(frozen=True)
class VmConfig:
    """Virtual-memory layout parameters."""

    phys_bytes: int
    page_bytes: int = PAGE_SIZE
    placement: str = "scrambled"  # or "sequential"
    seed: int = 42
    #: Physical frames below this address are reserved (kernel, firmware),
    #: keeping user allocations away from row 0 edge cases.
    reserved_low_bytes: int = 1 << 24

    def __post_init__(self) -> None:
        if not is_power_of_two(self.page_bytes):
            raise ConfigError("page size must be a power of two")
        if self.phys_bytes % self.page_bytes:
            raise ConfigError("physical size must be page aligned")
        if self.placement not in ("sequential", "scrambled"):
            raise ConfigError(f"unknown placement {self.placement!r}")
        if self.reserved_low_bytes % self.page_bytes:
            raise ConfigError("reserved region must be page aligned")
        if self.reserved_low_bytes >= self.phys_bytes:
            raise ConfigError("reserved region covers all of memory")


class _LazyShuffle:
    """The free frames ``first .. first + count - 1`` in the order that
    ``random.Random(seed).shuffle`` of that list would leave them, drawn
    one step per :meth:`pop`.

    ``shuffle`` fixes the list from the end first: for ``i`` descending,
    ``j = randbelow(i + 1)``, swap ``i`` and ``j``.  :meth:`pop` takes that
    step for the last position and pops it, so it draws the same RNG
    values in the same order, and returns the same frames, as popping a
    list shuffled up front.  The list itself is never built: position
    ``p`` holds ``first + p`` unless a swap moved another frame there
    (``_moved``), so memory grows with the frames handed out, not with
    the module.
    """

    def __init__(self, first: int, count: int, seed: int) -> None:
        self._first = first
        self._count = count
        self._rng = random.Random(seed)
        self._moved: dict[int, int] = {}  # position -> frame, where swapped

    def __len__(self) -> int:
        return self._count

    def pop(self) -> int:
        i = self._count - 1
        self._count = i
        frame = self._moved.pop(i, self._first + i)
        if i:
            # randrange(n) draws exactly what shuffle's randbelow(n) draws.
            j = self._rng.randrange(i + 1)
            if j != i:
                # Swap: position j keeps frame i, and j's frame is popped.
                frame, self._moved[j] = self._moved.get(j, self._first + j), frame
        return frame

    def finish(self) -> list[int]:
        """The frames not yet handed out, as a list in final order: the
        steps left are exactly a ``random.shuffle`` of that list."""
        frames = [self._moved.get(p, self._first + p) for p in range(self._count)]
        self._rng.shuffle(frames)
        return frames


class VirtualMemory:
    """Page tables plus a simple bump allocator for virtual space."""

    #: Base of the simulated user heap.
    VBASE = 0x7F00_0000_0000

    def __init__(self, config: VmConfig) -> None:
        self.config = config
        self._page_bits = config.page_bytes.bit_length() - 1
        self._offset_mask = config.page_bytes - 1
        self._first_frame = config.reserved_low_bytes >> self._page_bits
        total_frames = config.phys_bytes >> self._page_bits
        self._free_frames: list[int] | _LazyShuffle
        if config.placement == "scrambled":
            self._free_frames = _LazyShuffle(
                self._first_frame, total_frames - self._first_frame, config.seed
            )
        else:
            frames = list(range(self._first_frame, total_frames))
            frames.reverse()  # consumed from the end: keep ascending order
            self._free_frames = frames
        self._page_table: dict[int, int] = {}  # vpn -> pfn
        # Software TLB: vpn -> pre-shifted frame base (pfn << page_bits),
        # filled lazily by translate() and invalidated on remap.  The hit
        # path is one dict lookup plus an OR, which is what the simulated
        # machine's fast-path execution engine keys on.
        self._tlb: dict[int, int] = {}
        self._next_vaddr = self.VBASE

    # -- allocation -----------------------------------------------------------

    def mmap(self, length: int, physically_contiguous: bool = False) -> int:
        """Allocate ``length`` bytes of virtual memory; returns the base
        virtual address.

        ``physically_contiguous=True`` models a transparent-huge-page or
        boot-time allocation where consecutive virtual pages land on
        consecutive physical frames (useful for controlled experiments and
        for the paper's assumption that attackers can reach specific rows).
        """
        if length <= 0:
            raise AllocationError("length must be positive")
        pages = -(-length // self.config.page_bytes)
        if pages > len(self._free_frames):
            raise AllocationError(
                f"out of physical frames ({pages} needed, "
                f"{len(self._free_frames)} free)"
            )
        base = self._next_vaddr
        self._next_vaddr += pages * self.config.page_bytes
        if physically_contiguous:
            frames = self._take_contiguous(pages)
        else:
            frames = [self._free_frames.pop() for _ in range(pages)]
        vpn0 = base >> self._page_bits
        for i, pfn in enumerate(frames):
            self._page_table[vpn0 + i] = pfn
        return base

    def _free_list(self) -> list[int]:
        """The free list as a real list, for callers that look through all
        of it: a lazy shuffle takes every step it has left first."""
        if isinstance(self._free_frames, _LazyShuffle):
            self._free_frames = self._free_frames.finish()
        return self._free_frames

    def _take_contiguous(self, pages: int) -> list[int]:
        """Find a run of ``pages`` consecutive free frames."""
        free = self._free_list()
        available = sorted(free)
        run_start = 0
        for i in range(1, len(available) + 1):
            if i == len(available) or available[i] != available[i - 1] + 1:
                if i - run_start >= pages:
                    chosen = available[run_start : run_start + pages]
                    chosen_set = set(chosen)
                    self._free_frames = [f for f in free if f not in chosen_set]
                    return chosen
                run_start = i
        raise AllocationError(f"no physically contiguous run of {pages} pages")

    def map_fixed(self, vaddr: int, paddr: int) -> None:
        """Map a specific virtual page onto a specific physical frame
        (privileged; used by test fixtures and the ANVIL kernel module)."""
        if vaddr % self.config.page_bytes or paddr % self.config.page_bytes:
            raise AllocationError("map_fixed requires page-aligned addresses")
        if not 0 <= paddr < self.config.phys_bytes:
            raise AllocationError(f"no physical frame at {paddr:#x}")
        pfn = paddr >> self._page_bits
        # Reserved frames never enter the free list: skip the linear scan.
        if pfn >= self._first_frame:
            free = self._free_list()
            if pfn in free:
                free.remove(pfn)
        vpn = vaddr >> self._page_bits
        self._page_table[vpn] = pfn
        # The page may have been translated before: drop any stale TLB entry.
        self._tlb.pop(vpn, None)

    # -- translation -----------------------------------------------------------

    def translate(self, vaddr: int) -> int:
        """Virtual -> physical, raising :class:`TranslationError` if unmapped.

        Translations are memoised in a software TLB (``_tlb``), so the hit
        path is a single dict lookup; the page-table walk only runs the
        first time a page is touched (or again after :meth:`map_fixed`
        remaps it, which invalidates the entry).
        """
        vpn = vaddr >> self._page_bits
        frame = self._tlb.get(vpn)
        if frame is None:
            pfn = self._page_table.get(vpn)
            if pfn is None:
                raise TranslationError(f"no mapping for virtual address {vaddr:#x}")
            frame = pfn << self._page_bits
            self._tlb[vpn] = frame
        return frame | (vaddr & self._offset_mask)

    def frames(self, vaddr: int, length: int) -> Iterator[int]:
        """Yield the frame base (``pfn << page_bits``) of the page holding
        each address in ``range(vaddr, vaddr + length, page_bytes)``.

        Walks the page table once per page and fills the TLB exactly as
        :meth:`translate` would; raises :class:`TranslationError` on
        reaching the first unmapped page.
        """
        bits = self._page_bits
        tlb = self._tlb
        table = self._page_table
        vpn0 = vaddr >> bits
        pages = -(-length // self.config.page_bytes)
        for vpn in range(vpn0, vpn0 + pages):
            frame = tlb.get(vpn)
            if frame is None:
                pfn = table.get(vpn)
                if pfn is None:
                    missing = vaddr + ((vpn - vpn0) << bits)
                    raise TranslationError(f"no mapping for virtual address {missing:#x}")
                frame = tlb[vpn] = pfn << bits
            yield frame

    def invalidate_tlb(self) -> None:
        """Drop every memoised translation (full TLB shootdown)."""
        self._tlb.clear()

    def is_mapped(self, vaddr: int) -> bool:
        return (vaddr >> self._page_bits) in self._page_table

    @property
    def mapped_pages(self) -> int:
        return len(self._page_table)

    @property
    def free_pages(self) -> int:
        return len(self._free_frames)
