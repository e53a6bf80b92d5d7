"""Process-pool execution for :class:`~repro.runner.SweepRunner`.

The runner owns sweep policy (seeds, cache, retries, timeouts, journal)
and runs cells in-process when serial; :class:`ProcessPoolBackend`
hides the pool mechanics (``BrokenProcessPool`` recovery, pickling
rejection, abandon-on-timeout) when parallel.  Per-cell SHA-256 seed
derivation makes placement irrelevant, so both paths yield bit-identical
results (enforced by ``tests/test_backends.py``).
"""

from __future__ import annotations

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
from .process import ProcessPoolBackend

__all__ = [
    "BackendUnavailableError",
    "CellTask",
    "ERROR",
    "LOST",
    "OK",
    "ProcessPoolBackend",
    "REJECTED",
    "REQUEUED",
    "TaskOutcome",
    "TransientSubmitError",
    "run_task",
]
