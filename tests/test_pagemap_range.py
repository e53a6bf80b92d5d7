"""Attack preparation through the pagemap range read.

``RowResolver.scan_buffer`` and ``conflict_candidates`` read a whole
buffer's pagemap entries in one pass.  The per-page reference code below
(one ``virt_to_phys`` plus one ``decode`` or ``same_set`` per page) is
what they replaced; both must index the same rows in the same order, find
the same conflicting addresses, and leave the same TLB behind.
"""

from __future__ import annotations

import pytest

from repro.attacks.eviction import conflict_candidates
from repro.attacks.targeting import RowResolver
from repro.dram import DramConfig
from repro.mem import MemorySystemConfig
from repro.presets import paper_machine, small_machine
from repro.sim import Machine, MachineConfig
from repro.units import MB

PAGE = 4096


def reference_scan(memsys, base_vaddr: int, length: int) -> dict:
    rows: dict[tuple[int, int, int], int] = {}
    for vaddr in range(base_vaddr, base_vaddr + length, PAGE):
        coord = memsys.mapping.decode(memsys.pagemap.virt_to_phys(vaddr))
        rows.setdefault((coord.rank, coord.bank, coord.row), vaddr)
    return rows


def reference_candidates(memsys, target_vaddr: int, pool_base: int, pool_len: int) -> list[int]:
    llc = memsys.hierarchy.llc
    target_paddr = memsys.pagemap.virt_to_phys(target_vaddr)
    offset_in_page = target_paddr & (PAGE - 1) & ~(llc.config.line_bytes - 1)
    matches = []
    for page_base in range(pool_base, pool_base + pool_len, PAGE):
        vaddr = page_base + offset_in_page
        paddr = memsys.pagemap.virt_to_phys(vaddr)
        if paddr != target_paddr and llc.same_set(paddr, target_paddr):
            matches.append(vaddr)
    return matches


def xor_hash_machine() -> Machine:
    """64 MB with the XOR bank hash and 2 KB rows, so the in-page offset
    carries a bank bit."""
    dram = DramConfig(
        ranks=2, banks_per_rank=4, rows_per_bank=4096, row_bytes=2048, xor_bank_hash=True
    )
    return Machine(MachineConfig(memory=MemorySystemConfig(dram=dram)))


MACHINES = {
    "small": (small_machine, 16 * MB),
    "paper": (lambda: paper_machine(seed=1), 64 * MB),
    "xor-hash": (xor_hash_machine, 16 * MB),
}


def prepared_pair(name: str):
    """Two identical machines, each with the same buffer mapped."""
    build, length = MACHINES[name]
    machines = build(), build()
    bases = [m.memory.vm.mmap(length) for m in machines]
    assert bases[0] == bases[1]
    return machines, bases[0], length


@pytest.mark.parametrize("name", list(MACHINES))
@pytest.mark.parametrize("skew", [0, 0x900])
def test_scan_buffer_matches_per_page_reads(name, skew):
    (ref, new), base, length = prepared_pair(name)
    expected = reference_scan(ref.memory, base + skew, length - skew)
    resolver = RowResolver(new.memory)
    assert resolver.scan_buffer(base + skew, length - skew) == len(expected)
    assert list(resolver.rows.items()) == list(expected.items())
    assert new.memory.vm._tlb == ref.memory.vm._tlb


@pytest.mark.parametrize("name", list(MACHINES))
@pytest.mark.parametrize("skew", [0, PAGE + 0x20])  # a pool that starts mid-line
def test_conflict_candidates_match_per_page_reads(name, skew):
    (ref, new), base, length = prepared_pair(name)
    pool_len = length - 2 * PAGE
    for target in (base + 64, base + 37 * PAGE + 0xA40, base + length - PAGE + 0x7C0):
        expected = reference_candidates(ref.memory, target, base + skew, pool_len)
        assert expected
        assert conflict_candidates(new.memory, target, base + skew, pool_len) == expected
    assert new.memory.vm._tlb == ref.memory.vm._tlb
