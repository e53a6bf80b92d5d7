"""Fast-path execution engine for the simulated machine.

:func:`execute_fast` (surfaced as :meth:`repro.sim.machine.Machine.run_fast`)
interprets an op stream with **bit-for-bit identical** architectural
outcomes to the reference ``Machine.execute`` loop — same ``RunResult``
fields, PMU counter values, PEBS sample stream, cache and
replacement-policy state, DRAM/controller statistics, and bit flips — but
several times faster.  Three mechanisms provide the speedup:

1. **Batched interpretation with hoisted state.**  All per-access state
   (TLB dict, per-level cache sets, latencies, deferred counters, the
   next timer deadline) is hoisted into locals once per *batch*, where a
   batch is the run of ops between two "slow events".  Inside a batch
   the interpreter dispatches on op kind with single interned-string
   compares and walks the cache levels inline — set lookup, replacement
   update, and fill are direct dict/list operations on the hoisted
   structures rather than a chain of method calls.

2. **Translation memoisation.**  ``VirtualMemory`` keeps a software TLB
   (page -> pre-shifted frame base); the fast path resolves a virtual
   address with one dict lookup and an OR.  DRAM address decoding is
   memoised the same way (physical address -> ``DramCoord``; coords are
   immutable named tuples, so sharing them is safe).

3. **An allocation-free access loop.**  Cache hits and plain DRAM
   accesses construct no ``MemoryAccess``/``HierarchyResult`` records;
   PMU event counts and cache hit/miss/eviction statistics accumulate in
   plain local ints and are flushed to the real counter objects before
   anything could observe them.  A record only materialises when a
   defense, armed counter, or the PEBS sampler needs to see the access.

**When the slow path is taken** (the engine falls back to plain
``Machine.execute`` for the op, or takes a bookkeeping excursion, then
re-hoists its locals and opens a new batch):

- the op is not a LOAD/STORE/CLFLUSH/MFENCE/COMPUTE (``PAIR_LOAD``,
  unknown kinds);
- the virtual page is not in the software TLB (first touch of a page);
- access hooks or memory-system listeners are registered (every access
  must materialise a record for them);
- an overflow interrupt is programmed on a counter the op would bump;
- the PEBS sampler is armed and the access passes its filters (the
  sample — or the sampler's tie-breaking RNG draw — must happen exactly
  as on the slow path);
- the access reaches DRAM while controller observers or row filters are
  registered (PARA/TRR/ARMOR defenses see every activation);
- a timer deadline is reached, the ``until`` predicate is due, or
  CLFLUSH executes while disallowed.

Invariants the engine relies on (pinned by the equivalence suite in
``tests/test_fastpath_equivalence.py``):

- hoisted state only changes inside callbacks (timers, overflow
  interrupts, ``until``) or slow-path ops — all of which end the current
  batch, so the hoisted locals are never stale;
- deferred counter increments are only used while no overflow interrupt
  is programmed on that counter, and deferred counts and statistics are
  flushed before any callback, sample offer, predicate, or return;
- ops are pulled from the stream one at a time (never prefetched), so
  generators that count iterations or produce ops lazily observe the
  same consumption order as ``Machine.run``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable

from ..mem.memory_system import MemoryAccess
from .ops import CLFLUSH, COMPUTE, LOAD, MFENCE, Op, STORE
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
    memory = machine.memory
    pmu = machine.pmu
    hierarchy = memory.hierarchy
    controller = memory.controller
    vm = memory.vm
    l1, l2, llc = hierarchy.l1, hierarchy.l2, hierarchy.llc

    # -- run-constant state -----------------------------------------------------
    page_bits = vm._page_bits
    offset_mask = vm._offset_mask
    tlb_get = vm._tlb.get
    lat_l1, lat_l2, lat_l3 = hierarchy.hit_latencies
    lat_miss = hierarchy.miss_latency
    mfence_cycles = hierarchy.config.mfence_cycles
    clflush_cycles = hierarchy.config.clflush_cycles
    l1_bits, l1_mask, l1_ways = l1._line_bits, l1._set_mask, l1.config.ways
    l2_bits, l2_mask, l2_ways = l2._line_bits, l2._set_mask, l2.config.ways
    llc_bits, llc_mask, llc_ways = llc._line_bits, llc._set_mask, llc.config.ways
    l1_simple = l1._n_slices == 1
    l2_simple = l2._n_slices == 1
    llc_simple = llc._n_slices == 1
    l1_index, l2_index, llc_index = l1.set_index, l2.set_index, llc.set_index
    # Sliced-cache set indices are memoised per line; read the memo inline
    # and only call set_index (which fills it, handling the cap) on a miss.
    llc_memo_get = llc._index_memo.get
    l1_stats, l2_stats, llc_stats = l1.stats, l2.stats, llc.stats
    l1_inv_line = l1.invalidate_line
    l2_inv_line = l2.invalidate_line
    # List identities are stable (add/remove mutate in place), so per-op
    # truthiness checks on these objects stay valid across callbacks.
    hooks = machine._access_hooks
    listeners = memory._listeners
    observers = controller._observers
    row_filters = controller._row_filters
    c_loads = pmu._c_loads
    c_stores = pmu._c_stores
    c_miss = pmu._c_miss
    c_load_miss = pmu._c_load_miss
    c_store_miss = pmu._c_store_miss
    decode_memo: dict[int, object] = {}
    decode_memo_get = decode_memo.get

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

    def _retire(record: MemoryAccess) -> None:
        """Full PMU retire for a materialised record (state is flushed and
        access hooks are known to be empty when this runs)."""
        sample = pmu.on_access(record, machine.cycles)
        if sample is not None and machine.pmi_cost_cycles:
            machine.cycles += machine.pmi_cost_cycles
            machine.overhead_cycles += machine.pmi_cost_cycles
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

    while stopped is None:
        # -- (re)hoist state a callback or slow-path op may have changed ------
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
        hit_defer = c_loads._next_overflow is None and c_stores._next_overflow is None
        miss_defer = hit_defer and (
            c_miss._next_overflow is None
            and c_load_miss._next_overflow is None
            and c_store_miss._next_overflow is None
        )
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
            slow_op = False
            if kind == LOAD or kind == STORE:
                is_store = kind == STORE
                vaddr = op[1]
                frame = tlb_get(vaddr >> page_bits)
                if frame is None or listeners or hooks or not hit_defer:
                    slow_op = True  # TLB fill / record consumers / armed counter
                else:
                    paddr = frame | (vaddr & offset_mask)
                    # ---- inline cache walk (mirrors Cache.access_fill) ----
                    line = paddr >> l1_bits
                    cset = (
                        l1_sets[line & l1_mask]
                        if l1_simple
                        else l1_sets[l1_index(paddr)]
                    )
                    way = cset.lookup.get(line)
                    if way is not None:
                        cset.policy.on_hit(way)
                        d1_hit += 1
                        lat, level = lat_l1, "L1"
                    else:
                        d1_miss += 1
                        tags = cset.tags
                        if len(cset.lookup) < l1_ways:
                            way = tags.index(None)
                        else:
                            way = cset.policy.victim()
                            del cset.lookup[tags[way]]
                            d1_evict += 1
                        tags[way] = line
                        cset.lookup[line] = way
                        cset.policy.on_fill(way)
                        line = paddr >> l2_bits
                        cset = (
                            l2_sets[line & l2_mask]
                            if l2_simple
                            else l2_sets[l2_index(paddr)]
                        )
                        way = cset.lookup.get(line)
                        if way is not None:
                            cset.policy.on_hit(way)
                            d2_hit += 1
                            lat, level = lat_l2, "L2"
                        else:
                            d2_miss += 1
                            tags = cset.tags
                            if len(cset.lookup) < l2_ways:
                                way = tags.index(None)
                            else:
                                way = cset.policy.victim()
                                del cset.lookup[tags[way]]
                                d2_evict += 1
                            tags[way] = line
                            cset.lookup[line] = way
                            cset.policy.on_fill(way)
                            line = paddr >> llc_bits
                            if llc_simple:
                                cset = llc_sets[line & llc_mask]
                            else:
                                idx = llc_memo_get(line)
                                cset = llc_sets[
                                    idx if idx is not None else llc_index(paddr)
                                ]
                            way = cset.lookup.get(line)
                            if way is not None:
                                cset.policy.on_hit(way)
                                d3_hit += 1
                                lat, level = lat_l3, "L3"
                            else:
                                d3_miss += 1
                                tags = cset.tags
                                if len(cset.lookup) < llc_ways:
                                    way = tags.index(None)
                                    tags[way] = line
                                    cset.lookup[line] = way
                                    cset.policy.on_fill(way)
                                else:
                                    way = cset.policy.victim()
                                    evicted = tags[way]
                                    del cset.lookup[evicted]
                                    d3_evict += 1
                                    tags[way] = line
                                    cset.lookup[line] = way
                                    cset.policy.on_fill(way)
                                    # Inclusive LLC: back-invalidate.
                                    l2_inv_line(evicted)
                                    l1_inv_line(evicted)
                                level = ""
                    if level:
                        # ---- cache hit: the allocation-free path ----
                        cycles += lat
                        n += 1
                        if is_store:
                            stores_n += 1
                        else:
                            loads_n += 1
                        if (
                            next_sample_at <= cycles
                            and not is_store
                            and sample_loads
                            and lat >= sample_lat_min
                        ):
                            # Armed sampler and the load passes its
                            # filters: the offer must really happen (it
                            # records a sample or burns a tie-break draw).
                            _flush()
                            _retire(
                                MemoryAccess(vaddr, paddr, is_store, level, lat, False)
                            )
                            _post_callbacks()
                            break  # re-hoist (sampler/timer state changed)
                        if is_store:
                            d_stores += 1
                        else:
                            d_loads += 1
                    else:
                        # ---- LLC miss: DRAM access ----
                        t_mem = cycles + lat_miss
                        n += 1
                        dram_n += 1
                        if is_store:
                            stores_n += 1
                        else:
                            loads_n += 1
                        if observers or row_filters or not miss_defer:
                            # Defense-visible access or armed miss counter:
                            # full controller + PMU retire semantics.
                            _flush()
                            dram = controller.access(paddr, t_mem, is_store)
                            total_lat = lat_miss + dram.latency_cycles
                            cycles += total_lat
                            machine.cycles = cycles
                            _retire(
                                MemoryAccess(
                                    vaddr,
                                    paddr,
                                    is_store,
                                    "DRAM",
                                    total_lat,
                                    True,
                                    coord=dram.coord,
                                    activated=dram.activated,
                                    new_flip_count=dram.new_flip_count,
                                )
                            )
                            _post_callbacks()
                            break  # re-hoist (callbacks may have run)
                        # Plain DRAM access: the controller demand path
                        # inlined (refresh blocking + decode + device).
                        pos = t_mem % trefi
                        blocked = trfc - pos if pos < trfc else 0
                        ent = decode_memo_get(paddr)
                        if ent is None:
                            coord = decode(paddr)
                            if len(decode_memo) >= _DECODE_MEMO_MAX:
                                decode_memo.clear()
                            ent = (
                                coord,
                                coord.rank * banks_per_rank + coord.bank,
                            )
                            decode_memo[paddr] = ent
                        coord, bank = ent
                        if open_rows[bank] == coord.row:
                            # Row-buffer hit: no activation, no disturbance,
                            # no RowAccess allocation (DramDevice.access's
                            # hit arm, with its stats deferred).
                            d_dev_acc += 1
                            d_dev_hit += 1
                            dram_lat = hit_cyc + blocked
                            activated = False
                            flips_n = 0
                        else:
                            # Row-buffer miss: the allocation-free
                            # activation arm, with accesses/activations/
                            # per-bank stats deferred like the hit arm.
                            act_lat, flips_n = dev_miss_fast(
                                coord, bank, t_mem + blocked
                            )
                            dram_lat = act_lat + blocked
                            activated = True
                            d_dev_acc += 1
                            d_dev_act += 1
                            d_act_bank[bank] = d_act_bank.get(bank, 0) + 1
                        d_ctl_acc += 1
                        d_ctl_lat += dram_lat
                        d_ctl_blocked += blocked
                        cycles += lat_miss + dram_lat
                        if next_sample_at <= cycles and (
                            sample_stores
                            if is_store
                            else (
                                sample_loads
                                and lat_miss + dram_lat >= sample_lat_min
                            )
                        ):
                            _flush()
                            _retire(
                                MemoryAccess(
                                    vaddr,
                                    paddr,
                                    is_store,
                                    "DRAM",
                                    lat_miss + dram_lat,
                                    True,
                                    coord=coord,
                                    activated=activated,
                                    new_flip_count=flips_n,
                                )
                            )
                            _post_callbacks()
                            break  # re-hoist (sampler state changed)
                        d_miss += 1
                        if is_store:
                            d_stores += 1
                            d_store_miss += 1
                        else:
                            d_loads += 1
                            d_load_miss += 1
            elif kind == COMPUTE:
                cycles += op[1]
                n += 1
            elif kind == CLFLUSH:
                vaddr = op[1]
                frame = tlb_get(vaddr >> page_bits)
                if frame is None or not clflush_ok:
                    slow_op = True  # TLB fill, or raise ClflushRestrictedError
                else:
                    paddr = frame | (vaddr & offset_mask)
                    # Inline Cache.invalidate at each level.
                    line = paddr >> l1_bits
                    cset = (
                        l1_sets[line & l1_mask]
                        if l1_simple
                        else l1_sets[l1_index(paddr)]
                    )
                    way = cset.lookup.pop(line, None)
                    if way is not None:
                        cset.tags[way] = None
                        cset.policy.on_invalidate(way)
                        d1_inval += 1
                    line = paddr >> l2_bits
                    cset = (
                        l2_sets[line & l2_mask]
                        if l2_simple
                        else l2_sets[l2_index(paddr)]
                    )
                    way = cset.lookup.pop(line, None)
                    if way is not None:
                        cset.tags[way] = None
                        cset.policy.on_invalidate(way)
                        d2_inval += 1
                    line = paddr >> llc_bits
                    if llc_simple:
                        cset = llc_sets[line & llc_mask]
                    else:
                        idx = llc_memo_get(line)
                        cset = llc_sets[idx if idx is not None else llc_index(paddr)]
                    way = cset.lookup.pop(line, None)
                    if way is not None:
                        cset.tags[way] = None
                        cset.policy.on_invalidate(way)
                        d3_inval += 1
                    cycles += clflush_cycles
                    clflush_n += 1
                    n += 1
            elif kind == MFENCE:
                cycles += mfence_cycles
                n += 1
            else:
                slow_op = True  # PAIR_LOAD and unknown kinds

            if slow_op:
                # -- full reference semantics for this one op --
                _flush()
                outcome = machine.execute(op)  # may raise; state is synced
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

            # -- shared epilogue for every deferred fast op -------------------
            if cycles >= next_deadline:
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
                    _flush()
                    done = until(machine)
                    cycles = machine.cycles
                    if done:
                        stopped = "until"
                    break  # re-hoist (the predicate saw the machine)
        else:
            stopped = "exhausted"
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
