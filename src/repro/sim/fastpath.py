"""Fast-path execution engine for the simulated machine.

:func:`execute_fast` (surfaced as :meth:`repro.sim.machine.Machine.run_fast`)
interprets an op stream with **bit-for-bit identical** architectural
outcomes to the reference ``Machine.execute`` loop — same ``RunResult``
fields, PMU counter values, PEBS sample stream, cache and
replacement-policy state, DRAM/controller statistics, and bit flips — but
several times faster.  Three mechanisms provide the speedup:

1. **Batched interpretation with hoisted state.**  All per-access state
   (TLB dict, per-level set lists, latencies, deferred counters, the
   next timer deadline) is hoisted into locals once per *batch*, where a
   batch is the run of ops between two "slow events".  Inside a batch
   the interpreter dispatches on op kind with single interned-string
   compares.  One walk serves every load and store (LOAD, STORE, each
   half of a PAIR_LOAD and each injected co-runner access): it indexes
   each level's set inline and makes one ``touch`` call per level (see
   :mod:`repro.cache.replacement`), discards an LLC victim from the L2
   and L1 sets directly (inclusion), and takes the DRAM access, defenses
   included, on an LLC miss.  A CLFLUSH is one ``discard`` per level.

2. **Translation memoisation.**  ``VirtualMemory`` keeps a software TLB
   (page -> pre-shifted frame base); the fast path resolves a virtual
   address with one dict lookup and an OR.  DRAM address decoding is
   memoised the same way (physical address -> ``DramCoord``; coords are
   immutable named tuples, so sharing them is safe).

3. **An allocation-free access loop.**  Cache hits and DRAM accesses,
   defended or not, construct no ``MemoryAccess``/``HierarchyResult``
   records; PMU event counts and cache, controller and device statistics
   accumulate in plain local ints and are flushed before anything could
   observe them.  A record only materialises when a PEBS sampler needs
   to see the access.

**PAIR_LOAD** runs inline with ``Machine.execute``'s semantics: both
loads take the walk from the same start cycle, load *a* first; the clock
advances by the larger latency; one ``_pair_lcg`` step picks the
retirement order; both loads then retire in that order, each updating
the PMU and offering to the sampler at the current clock (a sampled
first load's PMI cost lands before the second retires); timers fire
once, after both.

**Access hooks** (``Machine.add_access_hook``: co-runners such as
``BackgroundMix``, told how far the foreground has retired) run inside
the batch.  After each deferred LOAD/STORE retire, and once per deferred
PAIR_LOAD (its second retire sees no elapsed time), the engine calls
``hook(cycles, walk)`` on each hook with an inline walk: a software-TLB
lookup (``translate`` on a miss), the shared walk without the decode
memo (co-runner misses rarely repeat an address), deferred shared PMU
counts, and an offer to the aux-core sampler only when it is enabled
and due.  A retire that takes an excursion (a sample or a slow op)
calls ``hook(t)`` through ``Machine._retire`` instead.  A hook keeps
its own schedule, so both engines interleave its accesses exactly as
``Machine.run`` does.  COMPUTE, MFENCE and CLFLUSH retire no record and
call no hook.

**When the slow path is taken** (the engine falls back to plain
``Machine.execute`` for the op, or takes a bookkeeping excursion, then
re-hoists its locals and opens a new batch):

- the op is not a LOAD/STORE/PAIR_LOAD/CLFLUSH/MFENCE/COMPUTE (unknown
  kinds), or is a CLFLUSH while CLFLUSH is disallowed;
- a virtual page of the op is not in the software TLB (first touch of a
  page);
- the PEBS sampler is armed and the access passes its filters (the
  sample — or the sampler's tie-breaking RNG draw — must happen exactly
  as on the slow path);
- a timer deadline is reached or the ``until`` predicate is due.

Controller defenses (PARA/TRR/ARMOR) run inside the batch: they see only
``(coord, time_cycles)``, and their victim refreshes bump device
statistics directly while the batch defers its own (both are additive).

Each fallback is counted by reason (``op_kind``, ``tlb_fill``,
``pebs``, ``timer``, ``until``) in ``Machine.fast_fallbacks`` (telemetry
only: it is not part of any ``RunResult`` or cache key).

Invariants the engine relies on (pinned by the equivalence suite in
``tests/test_fastpath_equivalence.py``):

- hoisted state only changes inside callbacks (timers, ``until``) or
  slow-path ops — all of which end the current batch, so the hoisted
  locals are never stale (access hooks and defenses run inside the
  batch and change none of it);
- deferred counts and statistics are flushed before any callback,
  sample offer, predicate, or return, a return by exception included
  (access hooks and the aux-core sampler's offers excepted: they read
  neither);
- ops are pulled from the stream one at a time (never prefetched), so
  generators that count iterations or produce ops lazily observe the
  same consumption order as ``Machine.run``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable

from ..cache.replacement import FILLED, HIT
from ..mem.memory_system import MemoryAccess
from .ops import CLFLUSH, COMPUTE, LOAD, MFENCE, PAIR_LOAD, Op, STORE
from .results import RunResult

if TYPE_CHECKING:  # pragma: no cover - type-only (machine imports us)
    from .machine import Machine

#: Sentinel deadline meaning "no timer pending / no limit" — far beyond any
#: reachable cycle count, so the common case is a single int compare.
FAR_FUTURE = 1 << 62

#: Cap on the per-run DRAM decode memo (address-sweeping workloads would
#: otherwise grow it without bound; entries are pure functions of the
#: address, so clearing only costs recomputation).
_DECODE_MEMO_MAX = 1 << 16


def execute_fast(
    machine: "Machine",
    ops: Iterable[Op],
    max_cycles: int | None = None,
    until: Callable[["Machine"], bool] | None = None,
    check_every: int = 64,
) -> RunResult:
    """Run ``ops`` on ``machine``; see the module docstring for semantics."""
    if check_every < 1:
        raise ValueError(f"check_every must be >= 1, got {check_every}")
    memory = machine.memory
    pmu = machine.pmu
    hierarchy = memory.hierarchy
    controller = memory.controller
    vm = memory.vm
    l1, l2, llc = hierarchy.l1, hierarchy.l2, hierarchy.llc
    execute = machine.execute
    translate = memory._translate
    fallbacks = machine.fast_fallbacks

    # -- run-constant state -----------------------------------------------------
    page_bits = vm._page_bits
    offset_mask = vm._offset_mask
    tlb_get = vm._tlb.get
    lat_l1, lat_l2, lat_l3 = hierarchy.hit_latencies
    lat_miss = hierarchy.miss_latency
    mfence_cycles = hierarchy.config.mfence_cycles
    clflush_cycles = hierarchy.config.clflush_cycles
    # HierarchyConfig enforces one line size, so a line number indexes
    # every level.
    line_bits = l1._line_bits
    l1_mask, l2_mask, llc_mask = l1._set_mask, l2._set_mask, llc._set_mask
    l1_simple = l1._n_slices == 1
    l2_simple = l2._n_slices == 1
    llc_simple = llc._n_slices == 1
    l1_index, l2_index, llc_index = l1.set_index, l2.set_index, llc.set_index
    # Sliced-cache set indices are memoised per line; read the memo inline
    # and only call set_index (which fills it, handling the cap) on a miss.
    llc_memo_get = llc._index_memo.get
    l1_stats, l2_stats, llc_stats = l1.stats, l2.stats, llc.stats
    # List identities are stable (add/remove mutate in place), so per-op
    # truthiness checks on these objects stay valid across callbacks.
    hooks = machine._access_hooks
    observers = controller._observers
    row_filters = controller._row_filters
    run_observers = controller._run_observers
    c_loads = pmu._c_loads
    c_stores = pmu._c_stores
    c_miss = pmu._c_miss
    c_load_miss = pmu._c_load_miss
    c_store_miss = pmu._c_store_miss
    decode_memo: dict[int, object] = {}
    decode_memo_get = decode_memo.get
    # Cache-hit outcomes of the walk, as MemoryAccess fields from
    # ``level`` on (shared: a hit allocates nothing).
    hit_l1 = ("L1", lat_l1, False, None, False, 0)
    hit_l2 = ("L2", lat_l2, False, None, False, 0)
    hit_l3 = ("L3", lat_l3, False, None, False, 0)

    start_cycles = machine.cycles
    start_overhead = machine.overhead_cycles
    start_misses = c_miss.value
    start_flips = memory.flip_count()
    deadline = FAR_FUTURE if max_cycles is None else start_cycles + max_cycles

    n = 0
    loads_n = stores_n = clflush_n = dram_n = 0
    until_left = check_every
    cycles = start_cycles
    stopped: str | None = None
    it = iter(ops)
    # Deferred PMU counts and cache statistics (flushed before anything
    # could read the real counter/stats objects).
    d_loads = d_stores = d_miss = d_load_miss = d_store_miss = 0
    d1_hit = d1_miss = d1_evict = d1_inval = 0
    d2_hit = d2_miss = d2_evict = d2_inval = 0
    d3_hit = d3_miss = d3_evict = d3_inval = 0
    d_ctl_acc = d_ctl_lat = d_ctl_blocked = 0
    d_dev_acc = d_dev_hit = d_dev_act = 0
    d_act_bank: dict[int, int] = {}  # deferred per-bank activation counts

    def _flush() -> None:
        """Drain deferred bumps and publish the local clock."""
        nonlocal d_loads, d_stores, d_miss, d_load_miss, d_store_miss
        nonlocal d1_hit, d1_miss, d1_evict, d1_inval
        nonlocal d2_hit, d2_miss, d2_evict, d2_inval
        nonlocal d3_hit, d3_miss, d3_evict, d3_inval
        nonlocal d_ctl_acc, d_ctl_lat, d_ctl_blocked
        nonlocal d_dev_acc, d_dev_hit, d_dev_act
        if d_loads:
            c_loads.value += d_loads
            d_loads = 0
        if d_stores:
            c_stores.value += d_stores
            d_stores = 0
        if d_miss:
            c_miss.value += d_miss
            d_miss = 0
        if d_load_miss:
            c_load_miss.value += d_load_miss
            d_load_miss = 0
        if d_store_miss:
            c_store_miss.value += d_store_miss
            d_store_miss = 0
        if d1_hit or d1_miss or d1_evict or d1_inval:
            l1_stats.hits += d1_hit
            l1_stats.misses += d1_miss
            l1_stats.evictions += d1_evict
            l1_stats.invalidations += d1_inval
            d1_hit = d1_miss = d1_evict = d1_inval = 0
        if d2_hit or d2_miss or d2_evict or d2_inval:
            l2_stats.hits += d2_hit
            l2_stats.misses += d2_miss
            l2_stats.evictions += d2_evict
            l2_stats.invalidations += d2_inval
            d2_hit = d2_miss = d2_evict = d2_inval = 0
        if d3_hit or d3_miss or d3_evict or d3_inval:
            llc_stats.hits += d3_hit
            llc_stats.misses += d3_miss
            llc_stats.evictions += d3_evict
            llc_stats.invalidations += d3_inval
            d3_hit = d3_miss = d3_evict = d3_inval = 0
        if d_ctl_acc:
            ctl_stats.accesses += d_ctl_acc
            ctl_stats.total_latency_cycles += d_ctl_lat
            ctl_stats.blocked_cycles += d_ctl_blocked
            d_ctl_acc = d_ctl_lat = d_ctl_blocked = 0
        if d_dev_acc:
            dev_stats.accesses += d_dev_acc
            dev_stats.row_hits += d_dev_hit
            d_dev_acc = d_dev_hit = 0
        if d_dev_act:
            dev_stats.activations += d_dev_act
            per_bank = dev_stats.activations_per_bank
            for bank_id, count in d_act_bank.items():
                per_bank[bank_id] = per_bank.get(bank_id, 0) + count
            d_act_bank.clear()
            d_dev_act = 0
        machine.cycles = cycles

    def _retire(*records: MemoryAccess) -> None:
        """Full retire of materialised records, in order, then one timer
        check (state is flushed when this runs)."""
        for record in records:
            machine._retire(record)
        machine._fire_due_timers()

    def _post_callbacks() -> None:
        """Deadline/until bookkeeping for an op whose timers already fired
        (callbacks may have moved the clock).  Always followed by a batch
        re-hoist; sets ``stopped`` when the run should end."""
        nonlocal cycles, until_left, stopped
        cycles = machine.cycles
        if cycles >= deadline:
            stopped = "max_cycles"
            return
        if until is not None:
            until_left -= 1
            if until_left == 0:
                until_left = check_every
                done = until(machine)
                cycles = machine.cycles  # the predicate may consume time
                if done:
                    stopped = "until"

    def _walk(paddr: int, t0: int, memo: bool = True) -> tuple:
        """One load or store at ``paddr`` starting at ``t0`` (stores fill
        like loads; the controller ignores the kind).  Each level is one
        ``touch``; an LLC eviction is discarded from the L2 and L1 sets
        (inclusion), and an LLC miss takes ``MemoryController.access``
        inline: refresh blocking, the decode (``memo=False`` skips its
        memo), the row filters, then the open-row check or an activation
        and the observers.  Returns the MemoryAccess fields from ``level``
        on; retirement is the caller's."""
        nonlocal d1_hit, d1_miss, d1_evict, d1_inval
        nonlocal d2_hit, d2_miss, d2_evict, d2_inval
        nonlocal d3_hit, d3_miss, d3_evict
        nonlocal d_ctl_acc, d_ctl_lat, d_ctl_blocked
        nonlocal d_dev_acc, d_dev_hit, d_dev_act
        line = paddr >> line_bits
        out = (l1_sets[line & l1_mask] if l1_simple else l1_sets[l1_index(paddr)]).touch(line)
        if out is HIT:
            d1_hit += 1
            return hit_l1
        d1_miss += 1
        if out is not FILLED:
            d1_evict += 1
        out = (l2_sets[line & l2_mask] if l2_simple else l2_sets[l2_index(paddr)]).touch(line)
        if out is HIT:
            d2_hit += 1
            return hit_l2
        d2_miss += 1
        if out is not FILLED:
            d2_evict += 1
        if llc_simple:
            cset = llc_sets[line & llc_mask]
        else:
            idx = llc_memo_get(line)
            cset = llc_sets[idx if idx is not None else llc_index(paddr)]
        out = cset.touch(line)
        if out is HIT:
            d3_hit += 1
            return hit_l3
        d3_miss += 1
        if out is not FILLED:
            d3_evict += 1
            if (
                l2_sets[out & l2_mask] if l2_simple else l2_sets[l2_index(out << line_bits)]
            ).discard(out):
                d2_inval += 1
            if (
                l1_sets[out & l1_mask] if l1_simple else l1_sets[l1_index(out << line_bits)]
            ).discard(out):
                d1_inval += 1
        t_mem = t0 + lat_miss
        pos = t_mem % trefi
        blocked = trfc - pos if pos < trfc else 0
        if memo:
            ent = decode_memo_get(paddr)
            if ent is None:
                coord = decode(paddr)
                if len(decode_memo) >= _DECODE_MEMO_MAX:
                    decode_memo.clear()
                ent = (coord, coord.rank * banks_per_rank + coord.bank)
                decode_memo[paddr] = ent
            coord, bank = ent
        else:
            coord = decode(paddr)
            bank = coord.rank * banks_per_rank + coord.bank
        d_ctl_acc += 1
        t_mem += blocked
        for row_filter in row_filters:
            if row_filter.absorbs(coord, t_mem):
                # Served from a defense's buffer: no device access, no blocking.
                d_ctl_lat += hit_cyc
                return ("DRAM", lat_miss + hit_cyc, True, coord, False, 0)
        d_dev_acc += 1
        if open_rows[bank] == coord.row:
            d_dev_hit += 1
            dram_lat = hit_cyc + blocked
            activated = False
            flips_n = 0
        else:
            act_lat, flips_n = dev_miss_fast(coord, bank, t_mem)
            dram_lat = act_lat + blocked
            activated = True
            d_dev_act += 1
            d_act_bank[bank] = d_act_bank.get(bank, 0) + 1
            if observers:
                run_observers(coord, t_mem)
        d_ctl_lat += dram_lat
        d_ctl_blocked += blocked
        return ("DRAM", lat_miss + dram_lat, True, coord, activated, flips_n)

    def _other_core_walk(vaddr: int, is_store: bool, t: int) -> None:
        """One access retired on another core at ``t`` (an access hook's
        walk): ``MemorySystem.access`` plus ``Pmu.on_access_other_core``,
        with the shared counts deferred."""
        nonlocal d_loads, d_stores, d_miss, d_load_miss, d_store_miss
        frame = tlb_get(vaddr >> page_bits)
        paddr = translate(vaddr) if frame is None else frame | (vaddr & offset_mask)
        access = _walk(paddr, t, False)
        if is_store:
            d_stores += 1
            if access[2]:
                d_miss += 1
                d_store_miss += 1
        else:
            d_loads += 1
            if access[2]:
                d_miss += 1
                d_load_miss += 1
        # The offer has no side effect before the sampler is due.
        if aux_on and t >= aux_sampler._next_sample_at:
            aux_sampler.offer(MemoryAccess(vaddr, paddr, is_store, *access), t)

    try:
        while stopped is None:
            # -- (re)hoist state a callback or slow-path op may have changed --
            aux_sampler = pmu.aux_sampler
            aux_on = aux_sampler is not None and aux_sampler.enabled
            cycles = machine.cycles
            next_deadline = machine._next_deadline
            clflush_ok = memory.clflush_allowed
            # flush_all() replaces the set lists, so they rebind per batch.
            l1_sets = l1._sets
            l2_sets = l2._sets
            llc_sets = llc._sets
            device = controller.device
            dev_miss_fast = device.access_miss_fast
            dev_stats = device.stats
            open_rows = device._open_rows
            hit_cyc = device._timings_cycles[0]
            banks_per_rank = device._banks_per_rank
            decode = controller.mapping.decode
            ctl_stats = controller.stats
            trefi = device.refresh_engine.trefi_cycles
            trfc = device.refresh_engine.trfc_cycles
            sampler = pmu.sampler
            if sampler is not None and sampler.enabled:
                scfg = sampler.config
                next_sample_at = sampler._next_sample_at
                sample_loads = scfg.sample_loads
                sample_stores = scfg.sample_stores
                sample_lat_min = scfg.latency_threshold_cycles
            else:
                next_sample_at = FAR_FUTURE
                sample_loads = sample_stores = False
                sample_lat_min = 0

            for op in it:
                kind = op[0]
                slow = None  # fallback reason: run this op through execute()
                if kind == LOAD or kind == STORE:
                    vaddr = op[1]
                    frame = tlb_get(vaddr >> page_bits)
                    if frame is None:
                        slow = "tlb_fill"
                    else:
                        is_store = kind == STORE
                        paddr = frame | (vaddr & offset_mask)
                        access = _walk(paddr, cycles)
                        lat = access[1]
                        miss = access[2]
                        cycles += lat
                        n += 1
                        if is_store:
                            stores_n += 1
                        else:
                            loads_n += 1
                        if miss:
                            dram_n += 1
                        if next_sample_at <= cycles and (
                            (miss and sample_stores)
                            if is_store
                            else (sample_loads and lat >= sample_lat_min)
                        ):
                            # Armed sampler and the access passes its
                            # filters: the offer must really happen (it
                            # records a sample or burns a tie-break draw).
                            fallbacks["pebs"] += 1
                            _flush()
                            _retire(MemoryAccess(vaddr, paddr, is_store, *access))
                            _post_callbacks()
                            break  # re-hoist (sampler/callback state changed)
                        if is_store:
                            d_stores += 1
                            if miss:
                                d_miss += 1
                                d_store_miss += 1
                        else:
                            d_loads += 1
                            if miss:
                                d_miss += 1
                                d_load_miss += 1
                        if hooks:
                            for hook in hooks:
                                hook(cycles, _other_core_walk)
                elif kind == COMPUTE:
                    cycles += op[1]
                    n += 1
                elif kind == CLFLUSH:
                    vaddr = op[1]
                    frame = tlb_get(vaddr >> page_bits)
                    if frame is None:
                        slow = "tlb_fill"
                    elif not clflush_ok:
                        slow = "op_kind"  # raises ClflushRestrictedError
                    else:
                        paddr = frame | (vaddr & offset_mask)
                        line = paddr >> line_bits
                        if (
                            l1_sets[line & l1_mask] if l1_simple else l1_sets[l1_index(paddr)]
                        ).discard(line):
                            d1_inval += 1
                        if (
                            l2_sets[line & l2_mask] if l2_simple else l2_sets[l2_index(paddr)]
                        ).discard(line):
                            d2_inval += 1
                        if llc_simple:
                            cset = llc_sets[line & llc_mask]
                        else:
                            idx = llc_memo_get(line)
                            cset = llc_sets[idx if idx is not None else llc_index(paddr)]
                        if cset.discard(line):
                            d3_inval += 1
                        cycles += clflush_cycles
                        clflush_n += 1
                        n += 1
                elif kind == PAIR_LOAD:
                    vaddr_a, vaddr_b = op[1]
                    frame_a = tlb_get(vaddr_a >> page_bits)
                    frame_b = tlb_get(vaddr_b >> page_bits)
                    if frame_a is None or frame_b is None:
                        slow = "tlb_fill"
                    else:
                        # Both loads start at the same cycle, a first; the
                        # pair costs the larger latency.
                        paddr_a = frame_a | (vaddr_a & offset_mask)
                        paddr_b = frame_b | (vaddr_b & offset_mask)
                        access_a = _walk(paddr_a, cycles)
                        access_b = _walk(paddr_b, cycles)
                        lat = access_a[1]
                        if access_b[1] > lat:
                            lat = access_b[1]
                        cycles += lat
                        n += 1
                        loads_n += 2
                        lcg = (machine._pair_lcg * 1103515245 + 12345) & 0x7FFFFFFF
                        machine._pair_lcg = lcg
                        miss_a = access_a[2]
                        miss_b = access_b[2]
                        dram_n += miss_a + miss_b
                        if next_sample_at <= cycles and sample_loads and lat >= sample_lat_min:
                            # The sampler could take either load.
                            fallbacks["pebs"] += 1
                            _flush()
                            rec_a = MemoryAccess(vaddr_a, paddr_a, False, *access_a)
                            rec_b = MemoryAccess(vaddr_b, paddr_b, False, *access_b)
                            if lcg & 0x10000:
                                _retire(rec_b, rec_a)
                            else:
                                _retire(rec_a, rec_b)
                            _post_callbacks()
                            break  # re-hoist (sampler/callback state changed)
                        d_loads += 2
                        if miss_a:
                            d_miss += 1
                            d_load_miss += 1
                        if miss_b:
                            d_miss += 1
                            d_load_miss += 1
                        if hooks:
                            for hook in hooks:
                                hook(cycles, _other_core_walk)
                elif kind == MFENCE:
                    cycles += mfence_cycles
                    n += 1
                else:
                    slow = "op_kind"  # unknown kinds: execute() raises

                if slow is not None:
                    # -- full reference semantics for this one op --
                    fallbacks[slow] += 1
                    _flush()
                    outcome = execute(op)  # may raise; state is synced
                    n += 1
                    if outcome is not None:
                        for record in outcome if type(outcome) is list else (outcome,):
                            if record.is_store:
                                stores_n += 1
                            else:
                                loads_n += 1
                            if record.level == "DRAM":
                                dram_n += 1
                    elif kind == CLFLUSH:
                        clflush_n += 1
                    _post_callbacks()
                    break  # re-hoist (execute may have run callbacks)

                # -- shared epilogue for every deferred fast op ---------------
                if cycles >= next_deadline:
                    fallbacks["timer"] += 1
                    _flush()
                    machine._fire_due_timers()
                    _post_callbacks()
                    break  # re-hoist (timer callbacks ran)
                if cycles >= deadline:
                    stopped = "max_cycles"
                    break
                if until is not None:
                    until_left -= 1
                    if until_left == 0:
                        until_left = check_every
                        fallbacks["until"] += 1
                        _flush()
                        done = until(machine)
                        cycles = machine.cycles
                        if done:
                            stopped = "until"
                        break  # re-hoist (the predicate saw the machine)
            else:
                stopped = "exhausted"
    finally:
        # Publish deferred state also when the stream, a hook or a callback
        # raises.  An excursion that raised may have moved the machine's
        # clock past the batch's copy (time only moves forward).
        if machine.cycles > cycles:
            cycles = machine.cycles
        _flush()

    result = RunResult(
        start_cycles=start_cycles, end_cycles=machine.cycles, ops_executed=n
    )
    result.loads = loads_n
    result.stores = stores_n
    result.clflushes = clflush_n
    result.dram_accesses = dram_n
    result.llc_misses = c_miss.value - start_misses
    result.new_flips = memory.flip_count() - start_flips
    result.overhead_cycles = machine.overhead_cycles - start_overhead
    result.stopped_by = stopped
    return result
