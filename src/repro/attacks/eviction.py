"""LLC eviction-set construction (paper Section 2.2).

"We create an eviction set by first picking the aggressor address and then
using its physical address to find 12 more addresses with matching cache
set mappings ... Conflicting addresses will have the same cache slice and
cache set bits."

Two builders are provided:

- :func:`build_eviction_set` — the paper's pagemap-based method: scan an
  owned buffer for physical addresses that collide with the target in both
  set index and slice hash;
- :func:`find_eviction_set_by_timing` — a timing-only fallback (greedy
  group testing) for machines where pagemap is restricted, demonstrating
  that the kernel mitigation alone does not stop the attack.

:func:`verify_eviction_set` confirms a candidate set works by measuring
the target's reload latency after touching the set.
"""

from __future__ import annotations

import random

from ..errors import EvictionSetError
from ..mem import MemorySystem
from ..sim.machine import Machine
from ..sim.ops import load


def conflict_candidates(
    memsys: MemorySystem,
    target_vaddr: int,
    pool_base: int,
    pool_len: int,
    privileged: bool = False,
) -> list[int]:
    """All addresses in the pool that collide with ``target_vaddr`` in the
    LLC (same set index and slice hash), found via pagemap."""
    llc = memsys.hierarchy.llc
    page = memsys.vm.config.page_bytes
    pagemap = memsys.pagemap
    target_paddr = pagemap.virt_to_phys(target_vaddr, privileged=privileged)
    # Matching bits below the page boundary means matching page offset.
    line = llc.config.line_bytes
    offset_in_page = target_paddr & (page - 1) & ~(line - 1)
    first = pool_base + offset_in_page
    offset = first & (page - 1)
    # set_index = slice * sets_per_slice + (line & set_mask): compare the
    # slice-local set bits first, and hash only the pages that pass.
    set_bits = (llc.config.sets_per_slice - 1) * line
    target_set = target_paddr & set_bits
    target_slice = llc.slice_index(target_paddr)
    matches = []
    frames = pagemap.frames(first, pool_len, privileged=privileged)
    for vaddr, frame in zip(range(first, first + pool_len, page), frames):
        paddr = frame | offset
        if (
            paddr & set_bits == target_set
            and paddr != target_paddr
            and llc.slice_index(paddr) == target_slice
        ):
            matches.append(vaddr)
    return matches


def build_eviction_set(
    memsys: MemorySystem,
    target_vaddr: int,
    pool_base: int,
    pool_len: int,
    size: int | None = None,
    privileged: bool = False,
) -> list[int]:
    """Build an eviction set of ``size`` conflicting addresses for the
    target (default: LLC associativity, 12 on Sandy Bridge).

    Raises :class:`EvictionSetError` if the pool does not contain enough
    colliding pages.
    """
    size = size if size is not None else memsys.hierarchy.llc.config.ways
    matches = conflict_candidates(
        memsys, target_vaddr, pool_base, pool_len, privileged=privileged
    )
    if len(matches) < size:
        raise EvictionSetError(
            f"pool yields only {len(matches)} conflicting addresses, "
            f"need {size}; allocate a larger pool"
        )
    return matches[:size]


def verify_eviction_set(
    machine: Machine, target_vaddr: int, eviction_set: list[int], rounds: int = 2
) -> bool:
    """True if accessing the eviction set evicts the target from the LLC.

    Measured the way an attacker would: load the target, sweep the set
    ``rounds`` times, then check whether the target's physical line left
    the hierarchy.
    """
    machine.execute(load(target_vaddr))
    for _ in range(rounds):
        for vaddr in eviction_set:
            machine.execute(load(vaddr))
    paddr = machine.memory.vm.translate(target_vaddr)
    return not machine.memory.hierarchy.is_cached(paddr)


def find_eviction_set_by_timing(
    machine: Machine,
    target_vaddr: int,
    pool_base: int,
    pool_len: int,
    size: int | None = None,
    miss_threshold_cycles: int | None = None,
    seed: int = 0,
    max_candidates: int = 4096,
    sweep_rounds: int = 2,
) -> list[int]:
    """Eviction-set construction without pagemap (timing side channel).

    Group-testing reduction: start from all pool pages sharing the
    target's page offset (a superset that evicts if any subset does),
    confirm it evicts by timing a target reload, then repeatedly split the
    working set into ``size + 1`` groups and drop any group whose removal
    still leaves the target evicted.  This is the technique the paper
    alludes to for "attacks that rely on side-channel information to make
    inferences about the physical memory layout" (Section 5.2.1).
    """
    memsys = machine.memory
    llc = memsys.hierarchy.llc
    size = size if size is not None else llc.config.ways
    if miss_threshold_cycles is None:
        miss_threshold_cycles = llc.config.latency_cycles + 1
    page = memsys.vm.config.page_bytes
    line = llc.config.line_bytes
    offset = target_vaddr & (page - 1) & ~(line - 1)

    def evicts(candidates: list[int]) -> bool:
        # Real attackers cleanse residual cache state between trials with
        # a large sweep over scratch memory; simulate that cheaply with a
        # full flush so each trial starts from a clean hierarchy.
        memsys.hierarchy.flush_all()
        machine.execute(load(target_vaddr))
        for _ in range(sweep_rounds):
            for vaddr in candidates:
                machine.execute(load(vaddr))
        record = machine.execute(load(target_vaddr))
        return record.latency_cycles >= miss_threshold_cycles

    candidates = [
        base + offset
        for base in range(pool_base, pool_base + pool_len, page)
        if base + offset != target_vaddr
    ]
    rng = random.Random(seed)
    rng.shuffle(candidates)
    working = candidates[:max_candidates]
    if not evicts(working):
        raise EvictionSetError(
            "candidate pool does not evict the target; enlarge the pool"
        )

    stalled = False
    while len(working) > size and not stalled:
        n_groups = min(size + 1, len(working) - size + 1)
        group_len = -(-len(working) // n_groups)
        stalled = True
        for start in range(0, len(working), group_len):
            trial = working[:start] + working[start + group_len :]
            if len(trial) >= size and evicts(trial):
                working = trial
                stalled = False
                break
    if len(working) > 4 * size:
        raise EvictionSetError(
            f"timing reduction stalled at {len(working)} addresses (target {size})"
        )
    # Final pass: drop single leftovers that are not needed.
    index = 0
    while len(working) > size and index < len(working):
        trial = working[:index] + working[index + 1 :]
        if evicts(trial):
            working = trial
        else:
            index += 1
    if len(working) > size or not evicts(working):
        raise EvictionSetError(
            f"timing reduction stalled at {len(working)} addresses (target {size})"
        )
    return working
