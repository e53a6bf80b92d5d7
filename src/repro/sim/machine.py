"""The simulated machine.

A :class:`Machine` owns the clock, memory system, and PMU, and executes
operation streams while firing software timers.  Time is a single integer
cycle counter; every architectural cost (cache latencies, DRAM timings,
CLFLUSH, PMI handling, detector bookkeeping) advances it, so a workload's
slowdown under ANVIL is simply the ratio of finishing times — the same
quantity the paper measures with wall clocks on real hardware.

Kernel-style software interacts through two mechanisms, mirroring the real
module:

- **timers** (:meth:`schedule_in` / :meth:`schedule_at`) for the tc/ts
  detection windows;
- **PMU feeds**: every retiring memory access updates counters and may be
  PEBS-sampled; each delivered sample charges ``pmi_cost_cycles`` to model
  the performance-monitoring interrupt plus record processing.

Co-runners on other cores (the heavy-load mix) follow the foreground
through **access hooks** (:meth:`add_access_hook`).
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Iterable

from ..mem import MemoryAccess, MemorySystem, MemorySystemConfig
from ..pmu import Event, Pmu
from ..units import Clock
from .fastpath import FAR_FUTURE, execute_fast
from .ops import CLFLUSH, COMPUTE, LOAD, MFENCE, PAIR_LOAD, STORE, Op
from .results import RunResult


@dataclass(frozen=True)
class MachineConfig:
    """Machine-level wiring: CPU frequency plus the memory system."""

    clock: Clock = field(default_factory=Clock)
    memory: MemorySystemConfig = field(default_factory=MemorySystemConfig)


TimerCallback = Callable[["Machine"], None]


class Machine:
    """One simulated core + memory system + PMU."""

    def __init__(self, config: MachineConfig | None = None) -> None:
        self.config = config or MachineConfig()
        self.clock = self.config.clock
        self.memory = MemorySystem(self.config.memory, self.clock)
        self.pmu = Pmu(self.clock.freq_hz)
        self.cycles = 0
        #: Cost charged per delivered PEBS sample (set by ANVIL when it
        #: arms sampling); models PMI entry + PEBS drain + task_struct walk.
        self.pmi_cost_cycles = 0
        self.overhead_cycles = 0
        self._timers: list[tuple[int, int, TimerCallback]] = []
        self._timer_seq = 0
        #: Cached deadline of the earliest pending timer (``FAR_FUTURE``
        #: when none), so the per-op "is a timer due?" check is a single
        #: int compare instead of a heap peek — the common zero-timer case
        #: in :meth:`execute`/:meth:`consume` costs one comparison.
        self._next_deadline = FAR_FUTURE
        self._pair_lcg = 0x2545F491
        self._access_hooks: list[Callable[..., None]] = []
        #: Fast-path fallbacks by reason (see :mod:`repro.sim.fastpath`):
        #: ``op_kind``, ``tlb_fill``, ``pebs``, ``timer``, ``until``.
        #: Access hooks and controller defenses (PARA/TRR/ARMOR) run
        #: inline and cause none.
        #: Engine telemetry only: no RunResult or cache key includes it.
        self.fast_fallbacks: Counter[str] = Counter()

    # -- time --------------------------------------------------------------------

    def now_ms(self) -> float:
        return self.clock.ms_from_cycles(self.cycles)

    def consume(self, cycles: int, overhead: bool = False) -> None:
        """Advance time by ``cycles`` (software work, stalls...)."""
        self.cycles += cycles
        if overhead:
            self.overhead_cycles += cycles
        self._fire_due_timers()

    # -- timers --------------------------------------------------------------------

    def schedule_at(self, deadline_cycles: int, callback: TimerCallback) -> None:
        """Run ``callback(machine)`` at the first opportunity at or after
        ``deadline_cycles``."""
        self._timer_seq += 1
        heapq.heappush(self._timers, (deadline_cycles, self._timer_seq, callback))
        if deadline_cycles < self._next_deadline:
            self._next_deadline = deadline_cycles

    def schedule_in(self, delta_cycles: int, callback: TimerCallback) -> None:
        self.schedule_at(self.cycles + delta_cycles, callback)

    def schedule_in_ms(self, delta_ms: float, callback: TimerCallback) -> None:
        self.schedule_in(self.clock.cycles_from_ms(delta_ms), callback)

    def cancel_timers(self) -> None:
        """Drop all pending timers (experiment teardown)."""
        self._timers.clear()
        self._next_deadline = FAR_FUTURE

    def _fire_due_timers(self) -> None:
        if self.cycles < self._next_deadline:
            return
        timers = self._timers
        while timers and timers[0][0] <= self.cycles:
            _, _, callback = heapq.heappop(timers)
            callback(self)
        # Callbacks may have rescheduled; the heap top is authoritative.
        self._next_deadline = timers[0][0] if timers else FAR_FUTURE

    # -- access hooks -----------------------------------------------------------------

    def add_access_hook(self, hook: Callable[..., None]) -> None:
        """Register a co-runner that is told how far the foreground has
        retired.

        :meth:`_retire` calls ``hook(t)`` after each retiring load or
        store, ``t`` being the clock after the retire; the fast engine
        calls ``hook(t, walk)`` after each retire it defers, where
        ``walk(vaddr, is_store, t)`` is one access retired on another core
        (shared caches, DRAM and counters; that core's sampler).  A
        deferred ``PAIR_LOAD``'s two retires share one ``t`` and one call,
        so a hook must treat a repeated ``t`` as a no-op.  The fast engine
        calls a hook inside its batch: the hook must not move the clock,
        schedule timers or register anything, and given a ``walk`` it
        must reach memory only through it.
        """
        self._access_hooks.append(hook)

    def remove_access_hook(self, hook: Callable[..., None]) -> None:
        self._access_hooks.remove(hook)

    # -- execution ----------------------------------------------------------------------

    def execute(self, op: Op) -> MemoryAccess | list[MemoryAccess] | None:
        """Execute a single operation; returns the access record(s) for
        loads/stores (a list for PAIR_LOAD)."""
        kind, operand = op
        if kind == LOAD or kind == STORE:
            record = self.memory.access(operand, self.cycles, is_store=(kind == STORE))
            self.cycles += record.latency_cycles
            self._retire(record)
            self._fire_due_timers()
            return record
        if kind == PAIR_LOAD:
            vaddr_a, vaddr_b = operand
            rec_a = self.memory.access(vaddr_a, self.cycles, is_store=False)
            rec_b = self.memory.access(vaddr_b, self.cycles, is_store=False)
            # Independent loads overlap in the out-of-order window.
            self.cycles += max(rec_a.latency_cycles, rec_b.latency_cycles)
            # Retirement order of overlapped loads is effectively random
            # from the PEBS sampler's viewpoint; alternate it so neither
            # address stream is systematically shielded from sampling.
            self._pair_lcg = (self._pair_lcg * 1103515245 + 12345) & 0x7FFFFFFF
            if self._pair_lcg & 0x10000:
                rec_a, rec_b = rec_b, rec_a
            self._retire(rec_a)
            self._retire(rec_b)
            self._fire_due_timers()
            return [rec_a, rec_b]
        if kind == CLFLUSH:
            self.cycles += self.memory.clflush(operand, self.cycles)
            self._fire_due_timers()
            return None
        if kind == MFENCE:
            self.cycles += self.memory.config.hierarchy.mfence_cycles
            self._fire_due_timers()
            return None
        if kind == COMPUTE:
            self.cycles += operand
            self._fire_due_timers()
            return None
        raise ValueError(f"unknown op kind {kind!r}")

    def _retire(self, record: MemoryAccess) -> None:
        """Post-retirement bookkeeping: PMU update + sampling cost + hooks."""
        sample = self.pmu.on_access(record, self.cycles)
        if sample is not None and self.pmi_cost_cycles:
            self.cycles += self.pmi_cost_cycles
            self.overhead_cycles += self.pmi_cost_cycles
        for hook in self._access_hooks:
            hook(self.cycles)

    def run(
        self,
        ops: Iterable[Op],
        max_cycles: int | None = None,
        until: Callable[["Machine"], bool] | None = None,
        check_every: int = 64,
    ) -> RunResult:
        """Execute ``ops`` until exhaustion, ``max_cycles`` elapsed, or
        ``until(machine)`` becomes true (checked every ``check_every`` ops).

        This is the reference interpreter: one :meth:`execute` per op.
        Experiments run on :meth:`run_fast`; tests and benches compare the
        two engines on the same streams.
        """
        if check_every < 1:
            raise ValueError(f"check_every must be >= 1, got {check_every}")
        start_cycles = self.cycles
        start_overhead = self.overhead_cycles
        miss_counter = self.pmu.counter(Event.LONGEST_LAT_CACHE_MISS)
        start_misses = miss_counter.read()
        start_flips = self.memory.flip_count()
        deadline = None if max_cycles is None else start_cycles + max_cycles
        result = RunResult(start_cycles=start_cycles, end_cycles=start_cycles, ops_executed=0)
        n = 0
        for op in ops:
            outcome = self.execute(op)
            n += 1
            if outcome is not None:
                records = outcome if isinstance(outcome, list) else (outcome,)
                for record in records:
                    if record.is_store:
                        result.stores += 1
                    else:
                        result.loads += 1
                    if record.level == "DRAM":
                        result.dram_accesses += 1
            elif op[0] == CLFLUSH:
                result.clflushes += 1
            if deadline is not None and self.cycles >= deadline:
                result.stopped_by = "max_cycles"
                break
            if until is not None and n % check_every == 0 and until(self):
                result.stopped_by = "until"
                break
        result.ops_executed = n
        result.end_cycles = self.cycles
        result.llc_misses = miss_counter.read() - start_misses
        result.new_flips = self.memory.flip_count() - start_flips
        result.overhead_cycles = self.overhead_cycles - start_overhead
        return result

    def run_fast(
        self,
        ops: Iterable[Op],
        max_cycles: int | None = None,
        until: Callable[["Machine"], bool] | None = None,
        check_every: int = 64,
    ) -> RunResult:
        """Execute ``ops`` through the fast-path engine.

        This is the engine every experiment runs on: all attacks
        (:meth:`repro.attacks.base.RowhammerAttack.run`) and both exploit
        hammers.  Bit-for-bit equivalent to the reference :meth:`run` —
        identical :class:`RunResult`, PMU counters, cache/replacement
        state, and flip outcomes for any op stream — but several times
        faster: state is hoisted into locals and the per-access record
        allocation, heap peek, and call-chain dispatch are skipped on the
        common paths (see :mod:`repro.sim.fastpath`).
        """
        return execute_fast(self, ops, max_cycles=max_cycles, until=until, check_every=check_every)

    # Kept as a plain alias: ``perfbench/probes.py`` patches engine entry
    # points by name through ``Machine.__dict__``.
    run_turbo = run_fast
