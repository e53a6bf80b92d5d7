"""Local process-pool backend: the pool mechanics the runner's
dispatcher never touches directly.

Pool lifecycle policy:

- workers are created lazily with the ``fork`` start method where
  available (shares the parent's imported modules and ``sys.path`` with
  zero warmup); elsewhere an initializer replays the parent's import
  path into spawned workers;
- a dead worker (``BrokenProcessPool``) settles its task as ``lost``
  (the runner charges the attempt), re-offers every sibling in-flight
  task as ``requeued`` (uncharged), and retires the pool — a fresh one
  is built on the next submit.  A bounded number of rebuilds
  (``max_rebuilds``) guards against a systemically broken pool: beyond
  it the backend declares itself unavailable and the runner finishes
  in-process;
- a payload or result that cannot cross the process boundary
  (``PicklingError`` and the ``AttributeError``/``TypeError`` shapes
  pickle raises) settles as ``rejected``: the pool is useless for this
  sweep, not just for one attempt;
- :meth:`~ProcessPoolBackend.abandon` (the runner's per-cell timeout)
  retires the whole pool — a worker stuck inside a cell cannot be
  preempted individually — and re-offers innocent tasks uncharged.
"""

from __future__ import annotations

import pickle
import sys
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor
from concurrent.futures import wait as futures_wait
from concurrent.futures.process import BrokenProcessPool
from typing import Iterable

from .base import (
    ERROR,
    LOST,
    OK,
    REJECTED,
    REQUEUED,
    BackendUnavailableError,
    CellTask,
    TaskOutcome,
    TransientSubmitError,
    run_task,
)

#: Exception types that mean "this payload/result cannot cross the process
#: boundary" — the pool is useless for the sweep, not just for one attempt.
_PICKLE_ERRORS = (pickle.PicklingError, AttributeError, TypeError)


def _init_worker(path: list[str]) -> None:
    """Give spawned workers the parent's import path (bench modules live
    outside ``site-packages``); fork workers inherit it anyway."""
    for entry in reversed(path):
        if entry not in sys.path:
            sys.path.insert(0, entry)


def _pool_run(task: CellTask) -> tuple:
    """Worker-side entry: execute one cell attempt inside a pool worker."""
    return run_task(task, in_worker=True)


class ProcessPoolBackend:
    """A ``ProcessPoolExecutor`` behind a submit/poll/abandon interface:
    :meth:`submit` hands over one :class:`CellTask` (it may raise
    :class:`TransientSubmitError` — "re-offer later, uncharged" — or
    :class:`BackendUnavailableError` — "never"); :meth:`poll` returns
    settled :class:`TaskOutcome` records; :meth:`abandon` gives up on
    stuck tasks (the runner's per-cell timeout)."""

    name = "process"

    def __init__(self, workers: int, max_rebuilds: int = 16) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.max_rebuilds = max_rebuilds
        self.pool_breaks = 0
        self._pool: ProcessPoolExecutor | None = None
        self._futures: dict = {}  # Future -> CellTask
        self._ready: deque[TaskOutcome] = deque()
        self._dead = False

    @property
    def capacity(self) -> int:
        return self.workers

    # -- pool lifecycle -----------------------------------------------------------

    def _ensure_pool(self) -> None:
        if self._pool is not None:
            return
        if self._dead:
            raise BackendUnavailableError("process pool permanently broken")
        try:
            import multiprocessing

            methods = multiprocessing.get_all_start_methods()
            context = multiprocessing.get_context(
                "fork" if "fork" in methods else None
            )
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers,
                mp_context=context,
                initializer=_init_worker,
                initargs=(list(sys.path),),
            )
        except (OSError, ImportError, ValueError, RuntimeError) as exc:
            self._dead = True
            raise BackendUnavailableError(
                f"cannot start a process pool: {exc}"
            ) from exc

    def _retire_pool(self, cancel: bool) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=cancel)
            self._pool = None

    def _requeue_in_flight(self) -> None:
        """Re-offer every tracked in-flight task uncharged (collateral
        damage from someone else's crash/timeout)."""
        for task in self._futures.values():
            self._ready.append(TaskOutcome(task_id=task.task_id, kind=REQUEUED))
        self._futures.clear()

    def _break_pool(self) -> None:
        self.pool_breaks += 1
        self._requeue_in_flight()
        self._retire_pool(cancel=True)
        if self.pool_breaks > self.max_rebuilds:
            self._dead = True

    # -- the runner-facing interface ----------------------------------------------

    def start(self) -> None:
        self._ensure_pool()

    def submit(self, task: CellTask) -> None:
        self._ensure_pool()
        try:
            fut = self._pool.submit(_pool_run, task)
        except (BrokenProcessPool, RuntimeError) as exc:
            self._break_pool()
            if self._dead:
                raise BackendUnavailableError(
                    f"process pool broke {self.pool_breaks} times; giving up"
                ) from exc
            raise TransientSubmitError(str(exc) or repr(exc)) from exc
        self._futures[fut] = task

    def poll(self, timeout: float | None) -> list[TaskOutcome]:
        """Settled outcomes, blocking up to ``timeout`` seconds (``None``
        = until at least one task settles)."""
        if self._ready:
            out = list(self._ready)
            self._ready.clear()
            return out
        if not self._futures:
            return []
        done, _ = futures_wait(
            set(self._futures), timeout=timeout, return_when=FIRST_COMPLETED
        )
        out: list[TaskOutcome] = []
        broken = False
        for fut in done:
            task = self._futures.pop(fut)
            try:
                value, duration = fut.result()
            except BrokenProcessPool:
                # The worker running this cell (or a sibling) died.
                broken = True
                out.append(TaskOutcome(
                    task_id=task.task_id, kind=LOST,
                    error="worker process died (BrokenProcessPool)",
                    error_type="WorkerCrash",
                ))
            except _PICKLE_ERRORS as exc:
                # Genuine cell errors of these types still surface as
                # failures on the runner's in-process path.
                out.append(TaskOutcome(
                    task_id=task.task_id, kind=REJECTED,
                    error=str(exc) or repr(exc), error_type=type(exc).__name__,
                ))
            except Exception as exc:
                out.append(TaskOutcome(
                    task_id=task.task_id, kind=ERROR,
                    error=str(exc) or repr(exc), error_type=type(exc).__name__,
                ))
            else:
                out.append(TaskOutcome(
                    task_id=task.task_id, kind=OK, value=value,
                    duration_s=duration,
                ))
        if broken:
            self._break_pool()
        out.extend(self._ready)
        self._ready.clear()
        return out

    def abandon(self, task_ids: Iterable[int]) -> None:
        """Give up on stuck in-flight tasks; innocent collateral tasks
        come back as ``requeued`` outcomes from the next :meth:`poll`."""
        dropped = set(task_ids)
        self._futures = {
            fut: task for fut, task in self._futures.items()
            if task.task_id not in dropped
        }
        # A stuck worker cannot be preempted individually: retire the
        # whole pool (rebuilt on next submit); innocents re-offer uncharged.
        self._requeue_in_flight()
        self._retire_pool(cancel=True)

    def shutdown(self, cancel: bool = True) -> None:
        """Release the workers; idempotent."""
        self._futures.clear()
        self._ready.clear()
        self._retire_pool(cancel=cancel)
