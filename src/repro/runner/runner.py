"""Sweep execution: a seeded, cached map over an in-process loop or a
local process pool.

Every cell's seed derives from the runner's root seed and the cell's key
(:func:`~.seeding.derive_seed`), so the result list is a pure function of
(grid, root seed), bit-identical at any worker count.  Cached cells are
served from the :class:`~.cache.ResultCache`; every other cell runs
exactly once — the model is deterministic, so a retry would only fail
again — and its value is cached the moment it completes, which is what
lets a rerun of an interrupted sweep recompute only unfinished cells.
A cell that raises, loses its pool worker, or returns a value that
cannot cross the process boundary becomes an ``ok=False``
:class:`~.job.JobResult`; once every cell has run, the sweep raises one
:class:`~repro.errors.SweepError` naming all of them.
"""

from __future__ import annotations

import importlib
import multiprocessing
import os
import sys
import time
import warnings
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Sequence

from ..errors import ConfigError, SweepError
from .cache import ResultCache, code_fingerprint
from .job import Job, JobResult, run_job
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


def run_cell(job: Job, seed: int | None) -> tuple[Any, float]:
    """One cell's value and wall-clock duration, in this process or a
    pool worker.  The duration is telemetry only (the one allow-listed
    wall-clock read): results compare and cache without it."""
    t0 = time.perf_counter()
    value = run_job(job, seed)
    return value, time.perf_counter() - t0


def _attempt(call: Callable[..., Any], *args: Any) -> Any:
    """``call(*args)``, or the exception it raised, as a value."""
    try:
        return call(*args)
    except Exception as exc:
        return exc


def _init_worker(path: list[str]) -> None:
    """Give spawned workers the parent's import path (bench modules live
    outside ``site-packages``); fork workers inherit it anyway."""
    for entry in reversed(path):
        if entry not in sys.path:
            sys.path.insert(0, entry)


def _start_pool(workers: int) -> ProcessPoolExecutor | None:
    """A pool of ``workers`` processes (fork where available), or ``None``
    with a warning when this host cannot start one."""
    try:
        methods = multiprocessing.get_all_start_methods()
        return ProcessPoolExecutor(
            max_workers=workers,
            mp_context=multiprocessing.get_context(
                "fork" if "fork" in methods else None
            ),
            initializer=_init_worker,
            initargs=(list(sys.path),),
        )
    except (OSError, ImportError, ValueError, RuntimeError) as exc:
        warnings.warn(
            f"cannot start a process pool ({exc}); running serially",
            RuntimeWarning, stacklevel=3,
        )
        return None


class SweepRunner:
    """Declarative executor for (config x workload x seed) grids.

    ``jobs`` is the worker count (``1`` = serial, ``0`` = one per CPU,
    ``None`` = read ``REPRO_JOBS``); ``root_seed`` anchors per-cell seed
    derivation; ``cache`` is a :class:`ResultCache`, a directory path, or
    ``None``.  ``backend`` pins the in-process loop (``"serial"``) or the
    pool (``"process"``); ``None`` uses the pool when more than one worker
    would have cells.  ``checkpoint`` accepts only ``None``: the cache is
    how an interrupted sweep resumes.
    """

    def __init__(
        self,
        jobs: int | None = None,
        root_seed: int = 0,
        cache: ResultCache | str | os.PathLike | None = None,
        checkpoint: None = None,
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
        if checkpoint is not None:
            raise ConfigError(
                "sweep checkpoints are not supported; attach a result cache "
                "instead (an interrupted sweep resumes from it)"
            )
        if backend not in (None, "serial", "process"):
            raise ConfigError(
                f"unknown sweep backend {backend!r}; expected 'serial' or 'process'"
            )
        self.backend = backend
        #: Execution summary of the most recent :meth:`run`.
        self.last_stats: dict[str, Any] = {}

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
        if fn_spec not in memo:
            module = importlib.import_module(fn_spec.partition(":")[0])
            memo[fn_spec] = code_fingerprint(getattr(module, "__file__", None))
        return memo[fn_spec]

    def _wants_pool(self, pending: int) -> bool:
        if self.backend is not None:
            return self.backend == "process"
        return min(self.jobs, pending) > 1

    # -- execution ---------------------------------------------------------------

    def run(self, cells: Sequence[Job]) -> list[JobResult]:
        """Execute ``cells``; results come back in input order,
        bit-identical to a plain serial loop whatever the worker count,
        completion order or cache hits.  If any cell failed,
        :class:`SweepError` is raised once every cell has run, carrying
        the failure records and the (already cached) survivors.
        """
        cells = list(cells)
        keys = [job.key for job in cells]
        if len(set(keys)) != len(keys):
            dupes = sorted({k for k in keys if keys.count(k) > 1})
            raise ValueError(f"duplicate job keys in sweep: {dupes}")

        seeds = [self.seed_for(job) for job in cells]
        results: list[JobResult | None] = [None] * len(cells)

        # Result cache: serve identical (params, seed, code) cells from disk.
        fingerprint_memo: dict[str, str] = {}
        cache_keys: dict[int, str] = {}
        pending: list[int] = []
        for i, job in enumerate(cells):
            if self.cache is not None:
                cache_keys[i] = self.cache.key_for(
                    job.fn, job.params, seeds[i],
                    self._fingerprint_for(job.fn, fingerprint_memo),
                )
                value = self.cache.get(cache_keys[i])
                if value is not self.cache.MISS:
                    results[i] = JobResult(
                        key=job.key, value=value, seed=seeds[i], cached=True
                    )
                    continue
            pending.append(i)

        def settle(i: int, outcome: tuple[Any, float] | Exception) -> None:
            if isinstance(outcome, Exception):
                results[i] = JobResult(
                    key=cells[i].key, value=None, seed=seeds[i], ok=False,
                    error=str(outcome) or repr(outcome),
                    error_type=type(outcome).__name__,
                )
                return
            value, duration_s = outcome
            results[i] = JobResult(
                key=cells[i].key, value=value, seed=seeds[i], duration_s=duration_s,
            )
            if self.cache is not None:
                self.cache.put(cache_keys[i], value)

        mode, workers, pool = "serial", 1, None
        if pending and self._wants_pool(len(pending)):
            size = min(self.jobs, len(pending))
            pool = _start_pool(size)
            mode, workers = ("parallel", size) if pool is not None else ("serial-fallback", 1)

        if pool is None:
            for i in pending:
                settle(i, _attempt(run_cell, cells[i], seeds[i]))
        else:
            try:
                futures = {}
                for i in pending:
                    try:
                        futures[pool.submit(run_cell, cells[i], seeds[i])] = i
                    except BrokenProcessPool as exc:  # a worker already died
                        settle(i, exc)
                for future in as_completed(futures):
                    settle(futures[future], _attempt(future.result))
            finally:
                # KeyboardInterrupt: cancel every cell not yet started.
                pool.shutdown(wait=False, cancel_futures=True)

        failures = [r for r in results if not r.ok]
        self.last_stats = {
            "cells": len(cells),
            "executed": len(pending),
            "cache_hits": len(cells) - len(pending),
            "mode": mode,
            "backend": "process" if pool is not None else "serial",
            "workers": workers,
        }
        if failures:
            raise SweepError(failures, [r for r in results if r.ok])
        return results

    def values(self, cells: Sequence[Job]) -> list[Any]:
        """Just the cell values, in input order."""
        return [r.value for r in self.run(cells)]
