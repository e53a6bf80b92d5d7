"""Timing probes wrapped around ``repro``'s entry points from outside.

:class:`Probes` patches class (and module) attributes when installed and
restores them on :meth:`Probes.uninstall`.  Install it before any machine
is built: ``MemorySystem`` binds ``vm.translate`` at construction, so a
later patch would miss it.

- **Setup clock** (always installed): the preparation calls in
  :data:`SETUP_POINTS` — machine presets, attack ``prepare``, defense and
  ANVIL ``install``, ``BackgroundMix.attach``, exploit ``load_program`` and
  ``spray`` — are timed wherever they are called from, including inside
  a runner cell or an exploit's ``run()``.  Only the outermost call of a
  nest counts.  These are a handful of calls per case, never per access.
- **Tracer** (``traced=True`` only): every entry point listed below adds
  to its layer's call count and self time (a call's duration minus the
  time spent in nested probed calls).  Coarse calls also become spans
  ``(id, name, start_ns, end_ns, parent, case)`` kept in memory.  Hooks
  and timer callbacks are replaced by stand-ins that compare equal to the
  original, so ``remove_access_hook``, ``remove_observer`` and
  ``BackgroundMix.detach`` behave as untraced.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager

from repro import presets
from repro.attacks.base import RowhammerAttack
from repro.cache.hierarchy import CacheHierarchy
from repro.core import AnvilModule
from repro.core.detector import AnvilDetector
from repro.defenses import Armor, Para, TargetedRowRefresh
from repro.dram.controller import MemoryController
from repro.dram.device import DramDevice
from repro.exploits import NaClEscapeExploit, PteSprayExploit
from repro.mem.memory_system import MemorySystem
from repro.mem.virtual import VirtualMemory
from repro.pmu.pmu import Pmu
from repro.runner import SweepRunner
from repro.sim.machine import Machine
from repro.workloads import BackgroundMix

_now = time.perf_counter_ns

#: (owner, attribute, layer) of every preparation call.
SETUP_POINTS = (
    (presets, "paper_machine", "presets"),
    (presets, "small_machine", "presets"),
    (RowhammerAttack, "prepare", "attacks"),
    (Para, "install", "defenses"),
    (TargetedRowRefresh, "install", "defenses"),
    (Armor, "install", "defenses"),
    (AnvilModule, "install", "core"),
    (BackgroundMix, "attach", "workloads"),
    (NaClEscapeExploit, "load_program", "exploits"),
    (PteSprayExploit, "spray", "exploits"),
)

#: Hot entry points (per access, or per ANVIL window): counted and timed, no spans.
ACCESS_POINTS = (
    (Machine, "execute", "sim"),
    (CacheHierarchy, "access", "cache"),
    (CacheHierarchy, "clflush", "cache"),
    (MemorySystem, "access", "mem"),
    (MemorySystem, "access_phys", "mem"),
    (MemorySystem, "clflush", "mem"),
    (VirtualMemory, "translate", "mem"),
    (VirtualMemory, "mmap", "mem"),
    (MemoryController, "access", "dram"),
    (MemoryController, "refresh_row", "dram"),
    (DramDevice, "access", "dram"),
    (DramDevice, "write_word", "dram_word"),
    (DramDevice, "read_word", "dram_word"),
    (Pmu, "on_access", "pmu"),
    (Pmu, "on_access_other_core", "pmu"),
    (Pmu, "drain_samples", "pmu"),
)

#: Coarse entry points: counted, timed and recorded as spans.
SPAN_POINTS = (
    (Machine, "run", "sim"),
    (Machine, "run_fast", "sim"),
    (Machine, "run_turbo", "sim"),
    (RowhammerAttack, "run", "attacks"),
    (NaClEscapeExploit, "run", "exploits"),
    (NaClEscapeExploit, "rescan", "exploits"),
    (PteSprayExploit, "run", "exploits"),
    (PteSprayExploit, "scan", "exploits"),
    (SweepRunner, "run", "runner"),
)


class StandIn:
    """Traced replacement for a registered hook, observer or row filter.

    Compares and hashes as the object it wraps, so registries that look
    the original up by equality (``list.remove``) still find it.
    """

    def __init__(self, wrapped, call=None, **methods) -> None:
        self.__wrapped__ = wrapped
        self._call = call
        self.__dict__.update(methods)

    def __call__(self, *args, **kwargs):
        return self._call(*args, **kwargs)

    def __eq__(self, other) -> bool:
        return self.__wrapped__ == getattr(other, "__wrapped__", other)

    def __hash__(self) -> int:
        return hash(self.__wrapped__)

    def __getattr__(self, name):
        if name == "__wrapped__":  # not yet set (copy, unpickle)
            raise AttributeError(name)
        return getattr(self.__wrapped__, name)


class Probes:
    """The setup clock, plus the tracer when ``traced``."""

    def __init__(self, traced: bool = False) -> None:
        self.traced = traced
        #: outermost preparation time, in ns, since the last reset
        self.setup_ns = 0
        self._setup_depth = 0
        #: per-point ``[calls, self_ns, total_ns]``
        self.points: dict[str, list[int]] = defaultdict(lambda: [0, 0, 0])
        self.point_layer: dict[str, str] = {}
        #: child time of each open probed call (innermost last)
        self._stack: list[int] = []
        self.spans: list[tuple] = []
        self._open_spans: list[int] = []
        self.case_id = ""
        self.counts: dict[str, int] = defaultdict(int)
        #: model objects built during the current case, for their stats
        self.built: dict[str, list] = defaultdict(list)
        self._sim_depth = 0
        #: start and cell wall time of each open SweepRunner.run
        self._runner_started: list[int] = []
        self._runner_cells_ns: list[int] = []
        self._saved: list[tuple] = []

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        for owner, name, layer in SETUP_POINTS:
            self._patch(owner, name, self._probe(owner, name, layer, setup=True))
        if not self.traced:
            return
        for owner, name, layer in ACCESS_POINTS:
            self._patch(owner, name, self._probe(owner, name, layer))
        for owner, name, layer in SPAN_POINTS:
            self._patch(owner, name, self._probe(owner, name, layer, span=True))
        self._patch(Machine, "schedule_at", self._schedule_at(Machine.schedule_at))
        self._patch(Machine, "add_access_hook", self._add_access_hook(Machine.add_access_hook))
        for name in ("add_observer", "add_row_filter"):
            self._patch(MemoryController, name, self._add_defense(getattr(MemoryController, name)))

    def uninstall(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def _patch(self, owner, name, replacement) -> None:
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, replacement)

    # -- the probe --------------------------------------------------------------

    def _probe(self, owner, name, layer, setup=False, span=False):
        """Wrap ``owner.name``; untraced, only setup points get here."""
        fn = owner.__dict__[name]
        key = f"{owner.__name__.rpartition('.')[2]}.{name}"
        if not self.traced:
            return self._setup_clock(fn)
        return self._wrap(fn, key, layer, setup=setup, span=span)

    def _setup_clock(self, fn):
        def timed(*args, **kwargs):
            self._setup_depth += 1
            t0 = _now()
            try:
                return fn(*args, **kwargs)
            finally:
                self._setup_depth -= 1
                if not self._setup_depth:
                    self.setup_ns += _now() - t0
        timed.__wrapped__ = fn
        return timed

    def _wrap(self, fn, key, layer, setup=False, span=False):
        """Traced probe: count and time ``fn`` as ``key`` of ``layer``."""
        self.point_layer[key] = layer
        stat = self.points[key]
        stack = self._stack
        before = self._before.get(key)
        after = self._after.get(key)

        if not (setup or span or before or after):
            def probe(*args, **kwargs):  # the per-access path: keep it lean
                stack.append(0)
                t0 = _now()
                try:
                    return fn(*args, **kwargs)
                finally:
                    duration = _now() - t0
                    stat[0] += 1
                    stat[1] += duration - stack.pop()
                    stat[2] += duration
                    if stack:
                        stack[-1] += duration
            probe.__wrapped__ = fn
            return probe

        def probe(*args, **kwargs):
            if setup:
                self._setup_depth += 1
            if before is not None:
                before(self)
            span_id = self._open_span() if (span or setup) else None
            stack.append(0)
            t0 = _now()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = _now()
                duration = t1 - t0
                stat[0] += 1
                stat[1] += duration - stack.pop()
                stat[2] += duration
                if stack:
                    stack[-1] += duration
                if span_id is not None:
                    self._close_span(span_id, key, t0, t1)
                if setup:
                    self._setup_depth -= 1
                    if not self._setup_depth:
                        self.setup_ns += duration
                if after is not None:
                    after(self, args, result)
        probe.__wrapped__ = fn
        return probe

    def _open_span(self) -> int:
        span_id = len(self.spans)
        self.spans.append(None)  # filled on close, so ids follow start order
        self._open_spans.append(span_id)
        return span_id

    def _close_span(self, span_id: int, name: str, start: int, end: int) -> None:
        self._open_spans.pop()
        parent = self._open_spans[-1] if self._open_spans else None
        self.spans[span_id] = (span_id, name, start, end, parent, self.case_id)

    @contextmanager
    def span(self, name: str):
        """Record a benchmark-level span (a case)."""
        span_id = self._open_span()
        t0 = _now()
        try:
            yield
        finally:
            self._close_span(span_id, name, t0, _now())

    # -- what the tracer learns from results ------------------------------------

    def _after_machine(self, args, machine) -> None:
        self.built["machines"].append(machine)

    def _enter_sim_run(self) -> None:
        self._sim_depth += 1

    def _after_sim_run(self, args, result) -> None:
        self._sim_depth -= 1
        if result is not None:
            self.counts["sim.ops"] += result.ops_executed

    def _after_execute(self, args, result) -> None:
        if not self._sim_depth:  # ops inside run() are in ops_executed
            self.counts["sim.ops"] += 1

    def _after_attack(self, args, result) -> None:
        attack = args[0]
        if attack not in self.built["attacks"]:
            self.built["attacks"].append(attack)

    def _after_anvil(self, args, result) -> None:
        self.built["anvils"].append(args[0])

    def _after_mix(self, args, result) -> None:
        self.built["mixes"].append(args[0])

    def _after_drain(self, args, records) -> None:
        if records is not None:
            self.counts["pmu.samples"] += len(records)

    def _enter_runner(self) -> None:
        self._runner_started.append(_now())
        self._runner_cells_ns.append(0)

    def _after_runner(self, args, result) -> None:
        runner = args[0]
        duration = _now() - self._runner_started.pop()
        self.counts["runner.overhead_ns"] += duration - self._runner_cells_ns.pop()
        self.counts["runner.retries"] += runner.last_stats.get("retries", 0)

    _before = {
        "Machine.run": _enter_sim_run,
        "Machine.run_fast": _enter_sim_run,
        "Machine.run_turbo": _enter_sim_run,
        "SweepRunner.run": _enter_runner,
    }

    _after = {
        "presets.paper_machine": _after_machine,
        "Machine.execute": _after_execute,
        "presets.small_machine": _after_machine,
        "Machine.run": _after_sim_run,
        "Machine.run_fast": _after_sim_run,
        "Machine.run_turbo": _after_sim_run,
        "RowhammerAttack.prepare": _after_attack,
        "RowhammerAttack.run": _after_attack,
        "AnvilModule.install": _after_anvil,
        "BackgroundMix.attach": _after_mix,
        "Pmu.drain_samples": _after_drain,
        "SweepRunner.run": _after_runner,
    }

    def harvest(self) -> None:
        """Add the counters of the model objects built during one case."""
        counts = self.counts
        for machine in self.built.pop("machines", ()):
            hierarchy = machine.memory.hierarchy
            controller = machine.memory.controller
            device = controller.device
            counts["cache.accesses"] += hierarchy.l1.stats.accesses
            counts["cache.llc_accesses"] += hierarchy.llc.stats.accesses
            counts["cache.llc_misses"] += hierarchy.llc.stats.misses
            counts["dram.accesses"] += device.stats.accesses
            counts["dram.row_hits"] += device.stats.row_hits
            counts["dram.activations"] += device.stats.activations
            counts["dram.flips"] += machine.memory.flip_count()
            counts["defenses.observer_refreshes"] += controller.stats.observer_refreshes
        for anvil in self.built.pop("anvils", ()):
            stats = anvil.stats
            counts["core.stage1_windows"] += stats.stage1_windows
            counts["core.stage1_triggers"] += stats.stage1_triggers
            counts["core.stage2_windows"] += stats.stage2_windows
            counts["core.detections"] += stats.detection_count
            counts["core.selective_refreshes"] += stats.selective_refreshes
        for mix in self.built.pop("mixes", ()):
            counts["workloads.injected_ops"] += mix.injected_ops
        for attack in self.built.pop("attacks", ()):
            counts["attacks.iterations"] += attack.iterations_emitted

    def summary(self) -> tuple[dict, dict]:
        """Self seconds per layer (plus the inclusive preparation timers)
        and every count of the traced pass."""
        layers: dict[str, float] = {}
        for key, (_, self_ns, _) in self.points.items():
            layer = self.point_layer[key]
            layers[layer] = layers.get(layer, 0.0) + self_ns / 1e9
        calls = {key: stat[0] for key, stat in self.points.items()}
        total_s = {key: stat[2] / 1e9 for key, stat in self.points.items()}
        layers["presets.build"] = total_s.get("presets.paper_machine", 0.0) + total_s.get(
            "presets.small_machine", 0.0
        )
        layers["attacks.prepare"] = total_s.get("RowhammerAttack.prepare", 0.0)
        counts = dict(self.counts)
        counts["mem.translations"] = calls.get("VirtualMemory.translate", 0)
        counts["dram.word_ops"] = calls.get("DramDevice.write_word", 0) + calls.get(
            "DramDevice.read_word", 0
        )
        return layers, counts

    # -- registrations the tracer swaps for stand-ins -----------------------------

    def _schedule_at(self, schedule_at):
        def traced(machine, deadline_cycles, callback):
            owner = getattr(callback, "__self__", None)
            if isinstance(owner, AnvilDetector):
                callback = self._callback(callback, "core", span=True)
            elif isinstance(owner, BackgroundMix):
                callback = self._callback(callback, "workloads")
            return schedule_at(machine, deadline_cycles, callback)
        traced.__wrapped__ = schedule_at
        return traced

    def _add_access_hook(self, add_access_hook):
        def traced(machine, hook):
            if isinstance(getattr(hook, "__self__", None), BackgroundMix):
                hook = StandIn(hook, call=self._callback(hook, "workloads"))
            return add_access_hook(machine, hook)
        traced.__wrapped__ = add_access_hook
        return traced

    def _add_defense(self, register):
        def traced(controller, hook):
            methods = {
                name: self._callback(getattr(hook, name), "defenses")
                for name in ("on_activation", "absorbs")
                if hasattr(hook, name)
            }
            return register(controller, StandIn(hook, **methods))
        traced.__wrapped__ = register
        return traced

    def _callback(self, fn, layer, span=False):
        """Probe a bound method registered with the model at run time."""
        key = f"{type(fn.__self__).__name__}.{fn.__name__}"
        return self._wrap(fn, key, layer, span=span)

    # -- runner cells -------------------------------------------------------------

    def wrap_cell(self, module, name: str) -> None:
        """Probe the sweep cell function ``module.name`` (the runner looks
        cells up by name): a span per cell, whose wall time is taken out of
        the enclosing ``SweepRunner.run`` for ``runner.overhead_s``."""
        fn = getattr(module, name)

        @functools.wraps(fn)
        def probe(*args, **kwargs):
            span_id = self._open_span()
            t0 = _now()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = _now()
                label = "/".join(str(v) for k, v in kwargs.items() if k != "seed")
                self._close_span(span_id, f"cell:{label}", t0, t1)
                if self._runner_cells_ns:
                    self._runner_cells_ns[-1] += t1 - t0
        self._patch(module, name, probe)
