"""Deterministic fault injection for sweep execution.

A :class:`FaultPlan` names, ahead of time, exactly which sweep cells
fail, how, and on which attempts — so every recovery path in
:class:`~.runner.SweepRunner` (worker crash, cell exception, hang +
timeout, cache-entry corruption) is reproducibly exercisable in tests
and CI rather than only on unlucky production runs.  Plans are plain
data: build one explicitly from :class:`Fault` records, or derive one
from a seed with :meth:`FaultPlan.random` (same seed, same plan — on
every machine).

Fault kinds:

- ``"error"`` — the cell raises :class:`InjectedFaultError`;
- ``"crash"`` — the worker process hard-exits (``os._exit``), breaking
  the pool mid-sweep; executed in-process (serial path / final serial
  attempt) it raises :class:`InjectedCrashError` instead of killing the
  parent;
- ``"hang"`` — the cell sleeps ``hang_s`` wall-clock seconds before
  failing, tripping the runner's per-cell timeout;
- ``"corrupt"`` — the cell itself succeeds, but its freshly written
  :class:`~.cache.ResultCache` entry is overwritten with garbage,
  exercising the checksum/quarantine path on the next run.

The runner embeds the matching fault *spec* (a picklable tuple) into
each dispatched payload; :func:`trip` executes it on the worker side.
"""

from __future__ import annotations

import hashlib
import os
import random
import time
from dataclasses import dataclass
from typing import Iterable

from ..errors import ReproError

#: Exit code used by injected worker crashes (visible in pool diagnostics).
CRASH_EXIT_CODE = 86

FAULT_KINDS = ("error", "crash", "hang", "corrupt")


class InjectedFaultError(ReproError):
    """A fault-plan-injected cell failure (distinguishable from real bugs)."""


class InjectedCrashError(InjectedFaultError):
    """In-process stand-in for a worker crash: raised instead of
    ``os._exit`` when a crash fault fires outside a pool worker."""


@dataclass(frozen=True)
class Fault:
    """One planned failure.

    ``cell`` selects the target by sweep index (position in the cell
    list handed to ``run``) or by job key.  ``attempts`` lists the
    attempt numbers (1-based) on which the fault fires; ``None`` means
    *every* attempt — a permanent failure that must end up in the
    failure manifest.  ``hang_s`` only applies to ``"hang"`` faults.
    """

    kind: str
    cell: int | str
    attempts: tuple[int, ...] | None = (1,)
    hang_s: float = 30.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; one of {FAULT_KINDS}")
        if self.attempts is not None and not self.attempts:
            raise ValueError("attempts must be a non-empty tuple or None (= always)")
        if self.hang_s <= 0:
            raise ValueError(f"hang_s must be positive, got {self.hang_s}")

    def fires_on(self, attempt: int) -> bool:
        return self.attempts is None or attempt in self.attempts


@dataclass(frozen=True)
class FaultPlan:
    """An immutable set of planned faults for one sweep."""

    faults: tuple[Fault, ...] = ()

    @classmethod
    def of(cls, *faults: Fault) -> "FaultPlan":
        return cls(faults=tuple(faults))

    @classmethod
    def random(
        cls,
        seed: int,
        n_cells: int,
        crashes: int = 1,
        errors: int = 1,
        hangs: int = 0,
        corruptions: int = 0,
        attempts: tuple[int, ...] | None = (1,),
        hang_s: float = 30.0,
    ) -> "FaultPlan":
        """A seed-deterministic plan over ``n_cells`` sweep cells.

        Targets are drawn without replacement from ``range(n_cells)``
        via ``random.Random(seed)``, so the same (seed, shape) always
        injects into the same cell indices — in CI, in tests, anywhere.
        """
        wanted = crashes + errors + hangs + corruptions
        if wanted > n_cells:
            raise ValueError(
                f"cannot place {wanted} faults in a {n_cells}-cell sweep"
            )
        rng = random.Random(seed)
        targets = rng.sample(range(n_cells), wanted)
        faults: list[Fault] = []
        for kind, count in (("crash", crashes), ("error", errors),
                            ("hang", hangs), ("corrupt", corruptions)):
            for _ in range(count):
                faults.append(Fault(kind=kind, cell=targets.pop(0),
                                    attempts=attempts, hang_s=hang_s))
        return cls(faults=tuple(faults))

    def faults_for(self, index: int, key: str) -> tuple[Fault, ...]:
        """Every fault aimed at cell ``index`` / ``key``."""
        return tuple(
            f for f in self.faults
            if (f.cell == index if isinstance(f.cell, int) else f.cell == key)
        )

    def cells(self) -> tuple[int | str, ...]:
        """The distinct targeted cells, in plan order."""
        seen: list[int | str] = []
        for f in self.faults:
            if f.cell not in seen:
                seen.append(f.cell)
        return tuple(seen)


class FaultInjector:
    """Applies a :class:`FaultPlan` during one sweep execution.

    The runner asks :meth:`spec_for` at dispatch time; a non-``None``
    spec rides inside the (picklable) worker payload and is executed by
    :func:`trip` before the cell body runs.  ``corruption_for`` is
    checked runner-side after a successful cache store.  ``tripped``
    records every fault armed, as ``(key, kind, attempt)`` tuples, for
    assertions and failure manifests.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.tripped: list[tuple[str, str, int]] = []

    def spec_for(
        self, index: int, key: str, attempt: int
    ) -> tuple | None:
        for fault in self.plan.faults_for(index, key):
            if fault.kind == "corrupt" or not fault.fires_on(attempt):
                continue
            self.tripped.append((key, fault.kind, attempt))
            if fault.kind == "hang":
                return ("hang", fault.hang_s)
            return (fault.kind, key, attempt)
        return None

    def corruption_for(self, index: int, key: str) -> bool:
        return any(
            f.kind == "corrupt" for f in self.plan.faults_for(index, key)
        )

    def corrupt_entry(self, cache, cache_key: str) -> bool:
        """Overwrite ``cache_key``'s on-disk entry with garbage bytes.

        The garbage is derived from the cache key, not drawn from
        ``os.urandom``: fault injection is part of the deterministic
        sweep contract, so even the corruption bytes are a pure function
        of the plan (DET invariant).
        """
        path = cache.path_for(cache_key)
        if not path.exists():
            return False
        garbage = hashlib.sha256(
            b"injected-corruption\x00" + cache_key.encode("utf-8")
        ).digest()[:8]
        path.write_bytes(b"\x00injected-corruption\x00" + garbage)
        return True


def trip(spec: tuple, in_worker: bool) -> None:
    """Execute a fault spec (worker side; also the serial path).

    Crash faults only hard-exit inside a pool worker — in-process they
    raise :class:`InjectedCrashError` so a serial run (or the final
    serial attempt) records a structured failure instead of killing the
    parent interpreter.
    """
    kind = spec[0]
    if kind == "error":
        raise InjectedFaultError(
            f"injected cell exception (cell {spec[1]!r}, attempt {spec[2]})"
        )
    if kind == "crash":
        if in_worker:
            os._exit(CRASH_EXIT_CODE)
        raise InjectedCrashError(
            f"injected worker crash (cell {spec[1]!r}, attempt {spec[2]}, in-process)"
        )
    if kind == "hang":
        time.sleep(spec[1])
        raise InjectedFaultError(f"injected hang elapsed after {spec[1]}s")
    raise ValueError(f"unknown fault spec {spec!r}")


def permanent_cells(plan: FaultPlan, keys: Iterable[str],
                    max_attempts: int) -> list[str]:
    """Job keys whose planned faults cover every attempt — the cells a
    ``degrade`` sweep's failure manifest must list exactly."""
    out: list[str] = []
    for index, key in enumerate(keys):
        faults = [f for f in plan.faults_for(index, key) if f.kind != "corrupt"]
        if faults and all(
            any(f.fires_on(a) for f in faults)
            for a in range(1, max_attempts + 1)
        ):
            out.append(key)
    return out
