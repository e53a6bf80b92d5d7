"""Background load for the heavy-load detection experiments.

Section 4.2: "To emulate heavy load, we run the rowhammering applications
along with memory-intensive applications (mcf, libquantum and omnetpp
running at the same time)".

On a multi-core machine those co-runners execute on *other* cores: they
do not slow the attack loop directly, but their LLC misses land in the
shared miss counters (raising the totals the locality analysis divides
by) and their loads/stores are PEBS-sampled by *their own core's*
facility, so the pooled sample set the detector analyses contains both
streams.  :class:`BackgroundMix` models exactly that: co-runner accesses
are injected through the shared memory system interleaved with the
foreground's (after each foreground retire, topped up by a timer when the
foreground is compute-bound) and fed to the PMU's auxiliary-core sampler.

The mix registers one machine access hook,
:meth:`BackgroundMix._inject_up_to`, which is told how far the foreground
has retired.  Called from the reference interpreter's retire, each
injected op walks ``MemorySystem.access`` and
``Pmu.on_access_other_core``; the fast engine calls it after each of its
own deferred retires with an inline walk instead (see
:mod:`repro.sim.fastpath`).  The injection schedule (the float
accumulator, the stream choice and the skipping of compute ops) lives
here either way, so both engines inject the same ops at the same cycles.

The default ``scale`` reflects the paper's testbed: an i5-2540M has two
cores, so the three co-runners time-share one core — and contend with the
attack for the shared LLC and memory channel — leaving each at roughly a
quarter of its standalone miss rate.
"""

from __future__ import annotations

import random
import weakref
from typing import Callable, Iterator

from ..errors import ConfigError
from ..sim.machine import Machine
from ..sim.ops import CLFLUSH, COMPUTE, MFENCE, Op, STORE
from .spec import SpecWorkload, spec_profile

#: One injected co-runner access: ``walk(vaddr, is_store, time_cycles)``.
Walk = Callable[[int, bool, int], None]


def interleave(streams: list[Iterator[Op]], weights: list[float], seed: int = 0) -> Iterator[Op]:
    """Merge op streams by weighted random choice (single-core timesharing)."""
    rng = random.Random(seed)
    while True:
        (stream,) = rng.choices(streams, weights=weights)
        yield next(stream)


class BackgroundMix:
    """Co-runner traffic injected into the shared LLC/DRAM/PMU.

    ``benchmarks`` defaults to the paper's heavy-load trio.  ``scale``
    multiplies each co-runner's standalone miss rate (0.25 ~= three
    co-runners time-sharing the second core of the paper's dual-core
    testbed while contending for its memory system).

    A mix attaches to one machine, once, and a machine carries at most
    one mix among its access hooks; :meth:`detach` stops injection for
    good and may be called repeatedly.  The machine holds the mix's hook
    and timer, so the mix refers back to it only weakly: a dropped
    machine is freed without waiting for the cyclic garbage collector.
    """

    HEAVY_TRIO = ("mcf", "libquantum", "omnetpp")

    def __init__(
        self,
        benchmarks: tuple[str, ...] = HEAVY_TRIO,
        scale: float = 0.25,
        tick_ms: float = 0.05,
        seed: int = 99,
        buffer_cap_bytes: int = 8 << 20,
    ) -> None:
        self.benchmarks = benchmarks
        self.scale = scale
        self.tick_ms = tick_ms
        self.seed = seed
        self.buffer_cap_bytes = buffer_cap_bytes
        self.injected_ops = 0
        self._machine: weakref.ref[Machine] | None = None
        self._streams: list[Iterator[Op]] = []
        self._ops_per_cycle = 0.0
        self._pending = 0.0
        self._last_cycles = 0
        self._running = False
        self._rng = random.Random(seed)

    def attach(self, machine: Machine) -> None:
        """Prepare co-runner buffers and start interleaved injection."""
        if self._machine is not None:
            raise ConfigError("this BackgroundMix is already attached")
        if any(
            isinstance(getattr(hook, "__self__", None), BackgroundMix)
            for hook in machine._access_hooks
        ):
            raise ConfigError("the machine already has a co-runner mix attached")
        self._machine = weakref.ref(machine)
        workloads = []
        for i, name in enumerate(self.benchmarks):
            profile = spec_profile(name)
            workload = SpecWorkload(
                profile, seed=self.seed + i,
                stream_limit_bytes=self.buffer_cap_bytes,
            )
            workload.prepare(machine)
            workloads.append(workload)
            self._streams.append(workload.ops())
        # Inject enough *memory* ops that misses land at the scaled rate;
        # the SpecWorkload streams carry the right hit/miss mix, so the op
        # rate is (misses per ms / miss fraction).
        ops_per_ms = self.scale * sum(
            w.profile.misses_per_ms / max(1e-6, w.miss_fraction) for w in workloads
        )
        self._ops_per_cycle = ops_per_ms / machine.clock.cycles_from_ms(1.0)
        self._last_cycles = machine.cycles
        self._running = True
        machine.pmu.enable_aux_core()  # co-runners retire on another core
        machine.add_access_hook(self._inject_up_to)
        machine.schedule_in_ms(self.tick_ms, self._tick)

    def detach(self) -> None:
        """Stop injecting and unregister the hook (idempotent)."""
        machine = self._machine() if self._machine is not None else None
        if machine is None or not self._running:
            return
        self._running = False
        machine.remove_access_hook(self._inject_up_to)

    # -- injection ------------------------------------------------------------

    def _tick(self, machine: Machine) -> None:
        """Catch-up injector for compute-bound foreground phases."""
        if not self._running:
            return
        self._inject_up_to(machine.cycles)
        machine.schedule_in_ms(self.tick_ms, self._tick)

    def _inject_up_to(self, time_cycles: int, walk: Walk | None = None) -> None:
        """The access hook: inject the co-runner ops that retired since
        the last call.

        ``_pending`` accumulates ``elapsed * ops_per_cycle`` per call, so
        the schedule depends on how elapsed time is split: every engine
        must call this after the same retires.  A repeated ``time_cycles``
        adds nothing (a deferred ``PAIR_LOAD``'s two retires share one
        call).  Each injected op is one ``walk(vaddr, is_store,
        time_cycles)``; the default walk is the reference chain
        (:meth:`_reference_walk`).
        """
        if not self._running:
            return
        elapsed = time_cycles - self._last_cycles
        self._last_cycles = time_cycles
        if elapsed <= 0:
            return
        self._pending += elapsed * self._ops_per_cycle
        count = int(self._pending)
        if count <= 0:
            return
        self._pending -= count
        if walk is None:
            walk = self._reference_walk
        for _ in range(count):
            stream = self._rng.choice(self._streams)
            op = next(stream)
            while op[0] in (COMPUTE, MFENCE, CLFLUSH):
                op = next(stream)  # co-runner compute costs no shared time
            kind, vaddr = op
            walk(vaddr, kind == STORE, time_cycles)
            self.injected_ops += 1

    def _reference_walk(self, vaddr: int, is_store: bool, time_cycles: int) -> None:
        """One co-runner access through the shared memory system, retired
        on the other core."""
        machine = self._machine()
        assert machine is not None
        record = machine.memory.access(vaddr, time_cycles, is_store=is_store)
        machine.pmu.on_access_other_core(record, time_cycles)
