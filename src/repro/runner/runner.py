"""Sweep execution with deterministic seeding, caching, and fault
tolerance.

:class:`SweepRunner` takes a list of independent :class:`~.job.Job` cells
and executes them

- **deterministically**: every cell's seed is derived from the runner's
  root seed and the cell's key (:func:`~.seeding.derive_seed`), so the
  result set is a pure function of (grid, root seed) — bit-identical
  whether cells run serially or across a local process pool;
- **in-process or on a pool**: the runner owns sweep *policy* (seeds,
  cache, retry/backoff, timeouts, journal).  Serial sweeps run cells in
  the runner's own retry loop; parallel sweeps hand them to a
  :class:`~.backends.ProcessPoolBackend`, which hides the pool
  mechanics;
- **incrementally**: with a :class:`~.cache.ResultCache` attached, cells
  whose (params, seed, code fingerprint) already have an entry are served
  from disk and only changed cells recompute;
- **fault-tolerantly**: a cell that raises, exceeds its per-attempt
  wall-clock timeout, or takes its pool worker down is retried with
  exponential backoff on a fresh worker, with its *final* attempt run
  in-process so no pool flakiness can consume a cell's last chance.  A
  pool that becomes unusable altogether (no processes, repeated breaks,
  unpicklable payloads) degrades the sweep to the in-process loop
  rather than failing it.  Cells that exhaust their attempts become
  structured :class:`~.job.JobResult` error records — under the
  ``strict`` failure policy the sweep then raises an aggregated
  :class:`~repro.errors.SweepError`; under ``degrade`` it returns the
  full partial result list plus a failure manifest
  (``last_failures`` / ``last_stats``);
- **resumably**: with ``checkpoint=<path>``, completed cells journal to
  an append-only manifest (:class:`~.checkpoint.SweepJournal`) flushed
  per cell, so an interrupted, killed, or strict-aborted sweep resumes
  recomputing only unfinished cells.  ``KeyboardInterrupt`` shuts the
  pool down and flushes the journal before propagating;
- **verifiably-on-purpose**: a seed-deterministic
  :class:`~.faults.FaultPlan` can inject worker crashes, cell
  exceptions, hangs, and cache corruption at chosen cells, so every one
  of the recovery paths above is exercisable in tests and CI.
"""

from __future__ import annotations

import math
import os
import sys
import time
import warnings
from collections import deque
from itertools import count
from typing import Any, Callable, Sequence

from ..errors import ConfigError, SweepError
from .backends import (
    ERROR,
    LOST,
    OK,
    REJECTED,
    REQUEUED,
    BackendUnavailableError,
    CellTask,
    ProcessPoolBackend,
    TransientSubmitError,
    run_task,
)
from .cache import ResultCache, code_fingerprint
from .checkpoint import SweepJournal, sweep_id
from .faults import FaultInjector, FaultPlan
from .job import Job, JobResult, resolve_callable
from .policy import STRICT, RetryPolicy, parse_failure_policy
from .seeding import derive_seed

#: Environment knob mirrored by the CLI/pytest ``--jobs`` options.
JOBS_ENV = "REPRO_JOBS"

_warned_negative_jobs = False


def default_jobs() -> int:
    """Worker count from ``REPRO_JOBS`` (serial when unset or invalid).

    A negative value clamps to serial (with a one-time warning) instead
    of flowing into a pool's ``max_workers=<0``.
    """
    global _warned_negative_jobs
    raw = os.environ.get(JOBS_ENV, "")
    try:
        jobs = int(raw)
    except ValueError:
        return 1
    if jobs < 0:
        if not _warned_negative_jobs:
            _warned_negative_jobs = True
            warnings.warn(
                f"{JOBS_ENV}={jobs} is negative; clamping to serial (1)",
                RuntimeWarning, stacklevel=2,
            )
        return 1
    return jobs if jobs != 0 else (os.cpu_count() or 1)


class SweepRunner:
    """Declarative executor for (config x workload x seed) grids.

    ``jobs`` is the worker count (``1`` = serial, ``0`` = one per CPU,
    ``None`` = read ``REPRO_JOBS``); ``root_seed`` anchors per-cell seed
    derivation; ``cache`` is a :class:`ResultCache`, a directory path, or
    ``None`` to disable caching.

    Fault-tolerance knobs: ``policy`` is the sweep-level failure policy
    (``"strict"`` or ``"degrade"``); ``retry`` a :class:`RetryPolicy`
    (attempts/backoff/timeout); ``checkpoint`` a journal path enabling
    checkpoint/resume; ``fault_plan`` a deterministic
    :class:`~.faults.FaultPlan` for chaos testing.

    ``backend`` picks how cells execute: ``"serial"`` (the in-process
    loop), ``"process"`` (a local pool of ``jobs`` workers), or ``None``
    for the pool when ``jobs > 1`` and the in-process loop otherwise.
    """

    def __init__(
        self,
        jobs: int | None = None,
        root_seed: int = 0,
        cache: ResultCache | str | os.PathLike | None = None,
        policy: str = STRICT,
        retry: RetryPolicy | None = None,
        checkpoint: str | os.PathLike | None = None,
        fault_plan: FaultPlan | None = None,
        backend: str | None = None,
    ) -> None:
        if jobs is None:
            jobs = default_jobs()
        elif jobs == 0:
            jobs = os.cpu_count() or 1
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1 (or 0 for one per CPU), got {jobs}")
        self.jobs = jobs
        self.root_seed = root_seed
        if cache is not None and not isinstance(cache, ResultCache):
            cache = ResultCache(cache)
        self.cache = cache
        self.policy = parse_failure_policy(policy)
        self.retry = retry if retry is not None else RetryPolicy()
        self.checkpoint = checkpoint
        self.fault_plan = fault_plan
        if backend not in (None, "serial", "process"):
            raise ConfigError(
                f"unknown sweep backend {backend!r}; expected 'serial' or 'process'"
            )
        self.backend = backend
        #: Execution summary of the most recent :meth:`run`.
        self.last_stats: dict[str, Any] = {}
        #: Failure manifest of the most recent :meth:`run` (``ok=False``
        #: :class:`JobResult` records, in sweep input order).
        self.last_failures: list[JobResult] = []
        #: The injector used by the most recent :meth:`run` (``None``
        #: without a fault plan); ``last_injector.tripped`` logs what fired.
        self.last_injector: FaultInjector | None = None

    # -- seed/cache bookkeeping ---------------------------------------------------

    def seed_for(self, job: Job) -> int | None:
        """The seed ``job`` will run with (explicit, derived, or None)."""
        if not job.pass_seed:
            return job.seed
        if job.seed is not None:
            return job.seed
        return derive_seed(self.root_seed, job.key)

    def _fingerprint_for(self, fn_spec: str, memo: dict[str, str]) -> str:
        """The code fingerprint covering ``fn_spec``'s defining module
        (memoised per spec for the duration of one run)."""
        fingerprint = memo.get(fn_spec)
        if fingerprint is None:
            module_name = fn_spec.partition(":")[0]
            module = sys.modules.get(module_name)
            if module is None:
                module = resolve_callable(fn_spec).__module__
                module = sys.modules.get(module)
            module_file = getattr(module, "__file__", None)
            fingerprint = code_fingerprint(module_file)
            memo[fn_spec] = fingerprint
        return fingerprint

    def _cache_key(self, job: Job, seed: int | None, memo: dict[str, str]) -> str:
        assert self.cache is not None
        return self.cache.key_for(
            job.fn, job.params, seed, self._fingerprint_for(job.fn, memo),
        )

    def _wants_pool(self, pending: int) -> bool:
        if self.backend is not None:
            return self.backend == "process"
        return min(self.jobs, pending) > 1

    # -- execution ---------------------------------------------------------------

    def run(self, cells: Sequence[Job], resume: bool = True) -> list[JobResult]:
        """Execute ``cells``; results come back in input order.

        The output is bit-identical to running the cells in a plain
        serial loop: parallelism, retries, worker scheduling, cache
        hits, and journal resumption are all invisible in the result
        set.  Failed cells appear as ``ok=False`` records under
        ``degrade``; under ``strict`` the sweep raises
        :class:`SweepError` once every cell has had its attempts
        (completed cells are still journalled first, so a strict abort
        is resumable).
        """
        cells = list(cells)
        keys = [job.key for job in cells]
        if len(set(keys)) != len(keys):
            dupes = sorted({k for k in keys if keys.count(k) > 1})
            raise ValueError(f"duplicate job keys in sweep: {dupes}")

        seeds = [self.seed_for(job) for job in cells]
        results: list[JobResult | None] = [None] * len(cells)
        failures: list[JobResult] = []
        injector = FaultInjector(self.fault_plan) if self.fault_plan else None
        self.last_injector = injector

        # Checkpoint journal: replay completed cells of this exact sweep.
        journal: SweepJournal | None = None
        journal_hits = 0
        if self.checkpoint is not None:
            journal = SweepJournal(self.checkpoint)
            journal_id = sweep_id(self.root_seed, keys, code_fingerprint())
            if resume:
                done = journal.load(journal_id)
                for i, job in enumerate(cells):
                    entry = done.get(job.key)
                    if entry is not None and entry.seed == seeds[i]:
                        results[i] = entry
                        journal_hits += 1
            journal.open_for(journal_id, resume=resume)

        # Result cache: serve identical (params, seed, code) cells from disk.
        fingerprint_memo: dict[str, str] = {}
        cache_keys: dict[int, str] = {}
        pending: list[int] = []
        for i, job in enumerate(cells):
            if results[i] is not None:
                continue
            if self.cache is not None:
                key = self._cache_key(job, seeds[i], fingerprint_memo)
                cache_keys[i] = key
                value = self.cache.get(key)
                if value is not self.cache.MISS:
                    results[i] = JobResult(
                        key=job.key, value=value, seed=seeds[i], cached=True
                    )
                    continue
            pending.append(i)

        cache_hits = sum(
            1 for r in results if r is not None and r.cached
        )

        def finish(i: int, result: JobResult) -> None:
            results[i] = result
            if not result.ok:
                failures.append(result)
                return
            if journal is not None:
                journal.record(result)
            if self.cache is not None and self.cache.put(cache_keys[i], result.value):
                if injector is not None and injector.corruption_for(i, cells[i].key):
                    injector.corrupt_entry(self.cache, cache_keys[i])

        dispatch_stats: dict[str, Any] = {
            "retries": 0, "timeouts": 0, "pool_breaks": 0,
            "backend": "serial", "workers": 1,
        }
        mode = "serial"
        if pending:
            try:
                mode = self._dispatch(
                    cells, seeds, pending, finish, injector, dispatch_stats,
                )
            except KeyboardInterrupt:
                # Completed cells are already journalled (flushed per
                # record); close cleanly so a resume picks them up.
                if journal is not None:
                    journal.close()
                raise

        self.last_failures = failures
        self.last_stats = {
            "cells": len(cells),
            "executed": len(pending),
            "cache_hits": cache_hits,
            "journal_hits": journal_hits,
            "mode": mode,
            "failures": len(failures),
            "failed": [r.key for r in failures],
            **dispatch_stats,
        }

        if journal is not None:
            if failures:
                journal.close()  # keep the file: unfinished cells resume later
            else:
                journal.complete()

        if failures and self.policy == STRICT:
            raise SweepError(failures, [r for r in results if r is not None])
        return [r for r in results if r is not None]

    def values(self, cells: Sequence[Job]) -> list[Any]:
        """Just the cell values, in input order."""
        return [r.value for r in self.run(cells)]

    # -- the resilient dispatcher -------------------------------------------------

    def _dispatch(
        self,
        cells: list[Job],
        seeds: list[int | None],
        pending: list[int],
        finish: Callable[[int, JobResult], None],
        injector: FaultInjector | None,
        stats: dict[str, Any],
    ) -> str:
        """Execute ``pending`` cell indices with retries/timeouts,
        reporting each completion through ``finish``; returns the mode
        string (``serial``, ``parallel``, or ``serial-fallback``).

        Cells run on the process pool while it is usable; whatever is
        still queued afterwards (everything, for a serial sweep) drains
        through the in-process loop.
        """
        policy = self.retry
        max_att = policy.max_attempts
        timeout_s = policy.timeout_s
        attempts: dict[int, int] = dict.fromkeys(pending, 0)
        ready_at: dict[int, float] = dict.fromkeys(pending, 0.0)
        queue: deque[int] = deque(pending)

        def make_task(idx: int, task_id: int) -> CellTask:
            spec = None
            if injector is not None:
                spec = injector.spec_for(idx, cells[idx].key, attempts[idx])
            return CellTask(task_id=task_id, job=cells[idx], seed=seeds[idx],
                            fault_spec=spec)

        def settle(idx: int, value: Any, duration_s: float) -> None:
            finish(idx, JobResult(
                key=cells[idx].key, value=value, seed=seeds[idx],
                duration_s=duration_s, attempts=attempts[idx],
            ))

        def record_failure(idx: int, error_type: str, message: str) -> None:
            if attempts[idx] >= max_att:
                finish(idx, JobResult(
                    key=cells[idx].key, value=None, seed=seeds[idx],
                    ok=False, error=message, error_type=error_type,
                    attempts=attempts[idx],
                ))
            else:
                stats["retries"] += 1
                ready_at[idx] = time.monotonic() + policy.backoff_s(
                    attempts[idx], cells[idx].key,
                )
                queue.append(idx)

        def run_inproc(idx: int) -> None:
            attempts[idx] += 1
            try:
                value, duration = run_task(make_task(idx, task_id=-1),
                                           in_worker=False)
            except Exception as exc:
                record_failure(idx, type(exc).__name__, str(exc) or repr(exc))
                return
            settle(idx, value, duration)

        def next_ready(now: float) -> int | None:
            for _ in range(len(queue)):
                idx = queue.popleft()
                if ready_at[idx] <= now:
                    return idx
                queue.append(idx)
            return None

        def sleep_until_ready() -> None:
            pause = min(ready_at[i] for i in queue) - time.monotonic()
            if pause > 0:
                time.sleep(pause)

        def drain_pool(pool: ProcessPoolBackend) -> str:
            """Run queued cells on ``pool`` until the queue is empty
            (``parallel``) or the pool proves unusable, in which case
            in-flight cells return to the queue uncharged
            (``serial-fallback``)."""
            task_ids = count()
            in_flight: dict[int, tuple[int, float]] = {}  # task_id -> (idx, deadline)

            def fall_back() -> str:
                for idx, _dl in in_flight.values():
                    attempts[idx] -= 1
                    queue.append(idx)
                in_flight.clear()
                return "serial-fallback"

            while queue or in_flight:
                # Dispatch every ready cell up to the pool's capacity.
                now = time.monotonic()
                while queue and len(in_flight) < pool.capacity:
                    idx = next_ready(now)
                    if idx is None:
                        break
                    if max_att > 1 and attempts[idx] == max_att - 1:
                        # Final attempt: in-process, immune to pool
                        # flakiness.
                        run_inproc(idx)
                        now = time.monotonic()
                        continue
                    attempts[idx] += 1
                    task = make_task(idx, task_id=next(task_ids))
                    try:
                        pool.submit(task)
                    except TransientSubmitError:
                        attempts[idx] -= 1
                        queue.appendleft(idx)
                        break
                    except BackendUnavailableError:
                        attempts[idx] -= 1
                        queue.appendleft(idx)
                        return fall_back()
                    deadline = now + timeout_s if timeout_s else math.inf
                    in_flight[task.task_id] = (idx, deadline)
                if not in_flight:
                    if queue:
                        # Nothing in flight, nothing ready: sleep out the
                        # shortest backoff.
                        sleep_until_ready()
                    continue

                # Wake on the first completion, the nearest deadline, or
                # the nearest retry-ready time (to keep workers fed).
                wake = min(dl for (_i, dl) in in_flight.values())
                if queue and len(in_flight) < pool.capacity:
                    wake = min(wake, min(ready_at[i] for i in queue))
                wait_t = (None if wake == math.inf
                          else max(0.0, wake - time.monotonic()))

                rejected = False
                for outcome in pool.poll(wait_t):
                    entry = in_flight.pop(outcome.task_id, None)
                    if entry is None:
                        continue  # already settled (e.g. timed out)
                    idx, _dl = entry
                    if outcome.kind == OK:
                        settle(idx, outcome.value, outcome.duration_s)
                    elif outcome.kind == ERROR:
                        record_failure(
                            idx, outcome.error_type or "WorkerError",
                            outcome.error or "cell failed on worker",
                        )
                    elif outcome.kind == LOST:
                        # The worker died under this cell: charge the
                        # attempt and re-dispatch on a fresh pool.
                        record_failure(
                            idx, outcome.error_type or "WorkerCrash",
                            outcome.error or "worker lost mid-cell",
                        )
                    elif outcome.kind == REQUEUED:
                        # Collateral damage from a sibling's crash or an
                        # abandonment: re-offer without charging.
                        attempts[idx] -= 1
                        queue.append(idx)
                    elif outcome.kind == REJECTED:
                        # The payload/result cannot cross the process
                        # boundary at all.  Uncharge and finish
                        # in-process, where no serialisation happens (and
                        # genuine cell errors of these types still
                        # surface as failures there).
                        attempts[idx] -= 1
                        queue.appendleft(idx)
                        rejected = True
                if rejected:
                    return fall_back()

                # Per-cell wall-clock timeouts: charge + fail the expired
                # cells, then let the pool reclaim what it can (innocent
                # in-flight cells re-dispatch uncharged).
                if timeout_s:
                    now = time.monotonic()
                    expired = [
                        tid for tid, (_i, dl) in in_flight.items() if dl <= now
                    ]
                    if expired:
                        stats["timeouts"] += len(expired)
                        for tid in expired:
                            idx, _dl = in_flight.pop(tid)
                            record_failure(
                                idx, "CellTimeout",
                                f"cell exceeded {timeout_s}s wall-clock "
                                f"budget (attempt {attempts[idx]})",
                            )
                        pool.abandon(expired)
            return "parallel"

        mode = "serial"
        pool: ProcessPoolBackend | None = None
        if self._wants_pool(len(pending)):
            pool = ProcessPoolBackend(
                max(1, min(self.jobs, len(pending))),
                max_rebuilds=2 * len(pending) + 4,
            )
            try:
                pool.start()
            except BackendUnavailableError as exc:
                warnings.warn(
                    f"sweep backend unavailable ({exc}); running serially",
                    RuntimeWarning, stacklevel=3,
                )
                pool = None
                mode = "serial-fallback"
            else:
                stats["backend"] = pool.name
                stats["workers"] = pool.capacity
        try:
            if pool is not None:
                mode = drain_pool(pool)
                # Normal completion: a clean synchronous shutdown.
                pool.shutdown(cancel=mode == "serial-fallback")
            # The in-process loop: a serial sweep, or whatever a failed
            # pool left behind.
            while queue:
                idx = next_ready(time.monotonic())
                if idx is None:
                    sleep_until_ready()
                    continue
                run_inproc(idx)
        finally:
            # KeyboardInterrupt / unexpected error: abandon workers and
            # cancel anything not yet started.
            if pool is not None:
                pool.shutdown(cancel=True)
                stats["pool_breaks"] = pool.pool_breaks
        return mode
