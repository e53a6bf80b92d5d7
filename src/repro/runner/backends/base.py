"""The task/outcome records exchanged between the runner and its pool.

:class:`~repro.runner.runner.SweepRunner` owns sweep *policy* — seed
derivation, caching, retry/backoff, per-cell timeouts, failure policies,
and the checkpoint journal — and runs cells either in its own process
or on a :class:`~.process.ProcessPoolBackend`.  Both execution sites go
through :func:`run_task`; the pool reports each attempt back as a
:class:`TaskOutcome` whose *kind* tells the runner how to charge it:

========== =====================================================
``ok``      cell value computed; settle the cell
``error``   the cell raised; charge the attempt, retry/backoff
``lost``    the worker died under the cell; charge the attempt
``requeued`` collateral damage (a sibling's crash/abandonment);
            re-dispatch without charging an attempt
``rejected`` the payload/result cannot cross the process boundary
            at all; the runner finishes the sweep in-process
========== =====================================================

Because every cell's seed is a pure function of (root seed, job key),
*placement is irrelevant to results*: in-process and pooled execution
of the same grid produce bit-identical
:class:`~repro.runner.job.JobResult` lists (``tests/test_backends.py``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any

from ...errors import ReproError
from ..faults import trip
from ..job import Job, run_job

#: Outcome kinds (see the table in the module docstring).
OK = "ok"
ERROR = "error"
LOST = "lost"
REQUEUED = "requeued"
REJECTED = "rejected"


class BackendUnavailableError(ReproError):
    """The pool can never execute this sweep (no processes, a
    systemically broken pool); the runner falls back to its in-process
    loop."""


class TransientSubmitError(ReproError):
    """The pool could not accept a task *right now* (mid-rebuild); the
    runner re-offers the task later without charging an attempt."""


@dataclass(frozen=True)
class CellTask:
    """One dispatched cell attempt: the job, its derived seed, and the
    (optional, picklable) fault spec that must trip before the body."""

    task_id: int
    job: Job
    seed: int | None
    fault_spec: tuple | None = None


@dataclass(frozen=True)
class TaskOutcome:
    """One completed/settled task as reported by the pool."""

    task_id: int
    kind: str
    value: Any = None
    duration_s: float = 0.0
    error: str | None = None
    error_type: str | None = None


def run_task(task: CellTask, in_worker: bool) -> tuple[Any, float]:
    """Execute one cell attempt in the current process.

    Shared by the runner's in-process loop and the pool workers; the
    fault spec trips *before* the cell body, crashing, raising, or
    hanging as planned.  Returns the cell value and the wall-clock
    duration.
    """
    t0 = time.perf_counter()
    if task.fault_spec is not None:
        trip(task.fault_spec, in_worker)
    value = run_job(task.job, task.seed)
    return value, time.perf_counter() - t0
