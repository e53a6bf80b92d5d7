"""Virtual memory, pagemap, and memory-system tests."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
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


def test_listener_sees_accesses(machine):
    seen = []
    machine.memory.add_listener(seen.append)
    base = machine.memory.vm.mmap(8192)
    machine.memory.access(base, 0, is_store=True)
    assert len(seen) == 1 and seen[0].is_store


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
