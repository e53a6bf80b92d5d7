"""Virtual memory, pagemap, and memory-system tests."""

from __future__ import annotations

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.dram.device import DEFAULT_FILL_WORD
from repro.errors import (
    AddressError,
    AllocationError,
    ClflushRestrictedError,
    PagemapRestrictedError,
    TranslationError,
)
from repro.mem import VirtualMemory, VmConfig
from repro.presets import small_machine
from repro.units import MB


def make_vm(placement="scrambled", phys=64 * MB) -> VirtualMemory:
    return VirtualMemory(VmConfig(phys_bytes=phys, placement=placement,
                                  reserved_low_bytes=1 * MB))


# -- virtual memory ---------------------------------------------------------------


def test_mmap_returns_distinct_regions():
    vm = make_vm()
    a = vm.mmap(1 * MB)
    b = vm.mmap(1 * MB)
    assert abs(a - b) >= 1 * MB


def test_translate_unmapped_raises():
    vm = make_vm()
    with pytest.raises(TranslationError):
        vm.translate(0x1234)


def test_translation_stable():
    vm = make_vm()
    base = vm.mmap(64 * 1024)
    assert vm.translate(base + 5000) == vm.translate(base + 5000)


def test_offset_within_page_preserved():
    vm = make_vm()
    base = vm.mmap(8192)
    paddr = vm.translate(base + 123)
    assert paddr % 4096 == (base + 123) % 4096


def test_sequential_placement_is_contiguous():
    vm = make_vm(placement="sequential")
    base = vm.mmap(64 * 1024)
    first = vm.translate(base)
    for i in range(16):
        assert vm.translate(base + i * 4096) == first + i * 4096


def test_scrambled_placement_is_not_contiguous():
    vm = make_vm(placement="scrambled")
    base = vm.mmap(256 * 1024)
    deltas = {
        vm.translate(base + (i + 1) * 4096) - vm.translate(base + i * 4096)
        for i in range(32)
    }
    assert deltas != {4096}


def test_physically_contiguous_allocation():
    vm = make_vm(placement="scrambled")
    base = vm.mmap(128 * 1024, physically_contiguous=True)
    first = vm.translate(base)
    for i in range(32):
        assert vm.translate(base + i * 4096) == first + i * 4096


def test_out_of_memory():
    vm = make_vm(phys=2 * MB)
    with pytest.raises(AllocationError):
        vm.mmap(64 * MB)


def test_reserved_low_frames_not_allocated():
    vm = make_vm()
    base = vm.mmap(4 * MB)
    for i in range(0, 4 * MB, 4096):
        assert vm.translate(base + i) >= 1 * MB


def test_map_fixed():
    vm = make_vm()
    vm.map_fixed(0x10000000, 2 * MB)
    assert vm.translate(0x10000000 + 17) == 2 * MB + 17


def test_map_fixed_rejects_a_frame_outside_memory():
    vm = make_vm()
    with pytest.raises(AllocationError):
        vm.map_fixed(0x10000000, 64 * MB)
    assert not vm.is_mapped(0x10000000)


def test_free_pages_decrease():
    vm = make_vm()
    before = vm.free_pages
    vm.mmap(1 * MB)
    assert vm.free_pages == before - 256


@settings(max_examples=40, deadline=None)
@given(offsets=st.lists(st.integers(min_value=0, max_value=(1 << 20) - 1),
                        min_size=1, max_size=20))
def test_distinct_pages_get_distinct_frames(offsets):
    vm = make_vm()
    base = vm.mmap(1 * MB)
    frames = {vm.translate(base + off) // 4096 for off in offsets}
    pages = {(base + off) // 4096 for off in offsets}
    assert len(frames) == len(pages)


class UpFrontPool:
    """The frame pool as a model: the whole free list shuffled with
    ``random.Random(seed).shuffle`` before the first allocation, then
    popped from the end, searched by ``map_fixed`` and by contiguous
    allocations.  :class:`VirtualMemory` draws its shuffle lazily and must
    hand out the same frames."""

    def __init__(self, config: VmConfig) -> None:
        bits = config.page_bytes.bit_length() - 1
        self.frames = list(range(config.reserved_low_bytes >> bits, config.phys_bytes >> bits))
        if config.placement == "scrambled":
            random.Random(config.seed).shuffle(self.frames)
        else:
            self.frames.reverse()

    def mmap(self, pages: int, contiguous: bool) -> list[int]:
        if pages > len(self.frames):
            raise AllocationError("out of frames")
        if not contiguous:
            return [self.frames.pop() for _ in range(pages)]
        available = sorted(self.frames)
        run_start = 0
        for i in range(1, len(available) + 1):
            if i == len(available) or available[i] != available[i - 1] + 1:
                if i - run_start >= pages:
                    chosen = available[run_start : run_start + pages]
                    chosen_set = set(chosen)
                    self.frames = [f for f in self.frames if f not in chosen_set]
                    return chosen
                run_start = i
        raise AllocationError("no contiguous run")

    def map_fixed(self, pfn: int) -> None:
        if pfn in self.frames:
            self.frames.remove(pfn)


POOL_FRAMES = 64
POOL_RESERVED = 8
pool_calls = st.lists(
    st.one_of(
        st.tuples(st.just("mmap"), st.integers(min_value=1, max_value=24)),
        st.tuples(st.just("contiguous"), st.integers(min_value=1, max_value=8)),
        # A frame anywhere: reserved, free or already handed out.
        st.tuples(st.just("fixed"), st.integers(min_value=0, max_value=POOL_FRAMES - 1)),
        # The k-th frame handed out so far (modulo), so remaps hit mapped frames.
        st.tuples(st.just("fixed-mapped"), st.integers(min_value=0, max_value=POOL_FRAMES)),
    ),
    max_size=20,
)


@settings(max_examples=150, deadline=None)
@given(
    placement=st.sampled_from(["scrambled", "sequential"]),
    seed=st.integers(min_value=0, max_value=1 << 32),
    calls=pool_calls,
)
# The last reserved frame and the first free one, on either side of the boundary.
@example(placement="scrambled", seed=1, calls=[("fixed", POOL_RESERVED - 1), ("mmap", 3)])
@example(placement="scrambled", seed=1, calls=[("mmap", 3), ("fixed", POOL_RESERVED)])
def test_frame_pool_matches_an_up_front_shuffle(placement, seed, calls):
    config = VmConfig(phys_bytes=POOL_FRAMES * 4096, placement=placement, seed=seed,
                      reserved_low_bytes=POOL_RESERVED * 4096)
    vm = VirtualMemory(config)
    model = UpFrontPool(config)
    handed_out: list[int] = []
    fixed_vaddr = 0x1000_0000
    for kind, n in calls:
        if kind.startswith("fixed"):
            if kind == "fixed-mapped":
                if not handed_out:
                    continue
                n = handed_out[n % len(handed_out)]
            vm.map_fixed(fixed_vaddr, n * 4096)
            model.map_fixed(n)
            assert vm.translate(fixed_vaddr) == n * 4096
            fixed_vaddr += 4096
        else:
            contiguous = kind == "contiguous"
            try:
                expected = model.mmap(n, contiguous)
            except AllocationError:
                with pytest.raises(AllocationError):
                    vm.mmap(n * 4096, physically_contiguous=contiguous)
            else:
                base = vm.mmap(n * 4096, physically_contiguous=contiguous)
                got = [vm.translate(base + i * 4096) // 4096 for i in range(n)]
                assert got == expected
                handed_out += got
        assert vm.free_pages == len(model.frames)
    # Whatever is left comes out in the model's order too.
    if model.frames:
        base = vm.mmap(len(model.frames) * 4096)
        rest = [vm.translate(base + i * 4096) // 4096 for i in range(len(model.frames))]
        assert rest == model.mmap(len(model.frames), False)
    assert vm.free_pages == 0


# -- pagemap ----------------------------------------------------------------------


def test_pagemap_translates(machine):
    base = machine.memory.vm.mmap(8192)
    assert machine.memory.pagemap.virt_to_phys(base) == machine.memory.vm.translate(base)


def test_pagemap_restricted_raises():
    machine = small_machine(pagemap_restricted=True)
    base = machine.memory.vm.mmap(8192)
    with pytest.raises(PagemapRestrictedError):
        machine.memory.pagemap.virt_to_phys(base)


def test_pagemap_restricted_allows_privileged():
    machine = small_machine(pagemap_restricted=True)
    base = machine.memory.vm.mmap(8192)
    assert machine.memory.pagemap.virt_to_phys(base, privileged=True) >= 0


def test_pagemap_range_read_matches_per_page_reads(machine):
    vm, pagemap = machine.memory.vm, machine.memory.pagemap
    base = vm.mmap(64 * 4096)
    start = base + 100  # one entry per page of the range, wherever it starts
    frames = pagemap.frames(start, 64 * 4096 - 100)
    assert list(frames) == [
        pagemap.virt_to_phys(start + i * 4096) & ~4095 for i in range(64)
    ]


def test_pagemap_range_read_checks_restriction_before_reading():
    machine = small_machine(pagemap_restricted=True)
    pagemap = machine.memory.pagemap
    base = machine.memory.vm.mmap(8192)
    # Raised by the call itself, before any entry is read: the range
    # starts on an unmapped page, so reading would raise TranslationError.
    with pytest.raises(PagemapRestrictedError):
        pagemap.frames(base - 4096, 3 * 4096)
    assert list(pagemap.frames(base, 8192, privileged=True)) == [
        pagemap.virt_to_phys(base + i * 4096, privileged=True) for i in range(2)
    ]


def test_pagemap_range_read_stops_at_an_unmapped_page(machine):
    vm = machine.memory.vm
    base = vm.mmap(2 * 4096)
    assert not vm.is_mapped(base + 2 * 4096)
    frames = machine.memory.pagemap.frames(base, 3 * 4096)
    assert next(frames) == vm.translate(base)
    assert next(frames) == vm.translate(base + 4096)
    with pytest.raises(TranslationError):
        next(frames)


# -- memory system ------------------------------------------------------------------


def test_access_path_levels(machine):
    base = machine.memory.vm.mmap(8192)
    first = machine.memory.access(base, 100_000)
    second = machine.memory.access(base, 200_000)
    assert first.level == "DRAM" and first.llc_miss
    assert second.level == "L1" and not second.llc_miss
    assert first.coord is not None and second.coord is None


def test_clflush_banned_machine():
    machine = small_machine(clflush_allowed=False)
    base = machine.memory.vm.mmap(8192)
    machine.memory.access(base, 0)
    with pytest.raises(ClflushRestrictedError):
        machine.memory.clflush(base, 100)


def test_word_io_via_virtual_addresses(machine):
    base = machine.memory.vm.mmap(8192)
    machine.memory.write_word(base + 8, 42)
    assert machine.memory.read_word(base + 8) == 42


def test_word_span_crosses_a_page_onto_a_non_adjacent_frame(machine):
    memory = machine.memory
    base = memory.vm.mmap(2 * 4096)
    frame0, frame1 = memory.vm.translate(base), memory.vm.translate(base + 4096)
    assert frame1 != frame0 + 4096  # scrambled placement
    values = [11, 22, 33, 44]
    memory.write_words(base + 4096 - 16, values)
    device = memory.device
    # Two words at the end of the first frame, two at the start of the second.
    assert device.read_words(frame0 + 4096 - 16, 2) == values[:2]
    assert device.read_words(frame1, 2) == values[2:]
    assert memory.read_words(base + 4096 - 16, 4) == values
    assert [memory.read_word(base + 4096 - 16 + 8 * i) for i in range(4)] == values
    assert device.read_word(frame0 + 4096) == DEFAULT_FILL_WORD  # frame0's neighbour


def test_bad_word_spans_raise_and_store_nothing(machine):
    memory = machine.memory
    base = memory.vm.mmap(2 * 4096)
    start = base + 4096 - 8
    with pytest.raises(AddressError):
        memory.write_words(start, [1, 1 << 64])  # second value out of range
    tail = memory.vm.mmap(4096)
    end = tail + 4096 - 8
    assert not memory.vm.is_mapped(end + 8)
    with pytest.raises(TranslationError):
        memory.write_words(end, [1, 2])  # second word on an unmapped page
    with pytest.raises(TranslationError):
        memory.read_words(end, 2)
    assert memory.read_words(start, 2) == [DEFAULT_FILL_WORD] * 2
    assert memory.read_words(end, 1) == [DEFAULT_FILL_WORD]


def test_row_of_vaddr_matches_manual_decode(machine):
    base = machine.memory.vm.mmap(8192)
    coord = machine.memory.row_of_vaddr(base)
    paddr = machine.memory.vm.translate(base)
    assert coord == machine.memory.mapping.decode(paddr)
