"""Declarative sweep execution: jobs, deterministic seeds, an in-process
loop or a local process pool, incremental result caching, and
fault-tolerant recovery.

Every reproduced figure/table iterates a (config x workload x seed) grid
of independent, seeded simulations.  This package turns such a grid into
a list of :class:`Job` cells and executes it with :class:`SweepRunner`:
in the runner's own process (``jobs=1``), across a local pool
(:class:`ProcessPoolBackend`), or straight from the on-disk result cache
— always producing the identical, input-ordered, bit-identical result
list.  A cell that raises, hangs past its timeout, or kills its worker
is retried with backoff (final attempt in-process) and, if it still
fails, becomes a structured error record governed by the sweep's
failure policy; completed cells journal to a checkpoint manifest so
interrupted sweeps resume where they stopped.
:class:`FaultPlan`/:class:`FaultInjector` make every one of those
recovery paths deterministically testable.

Quick form::

    from repro.runner import Job, RetryPolicy, SweepRunner

    jobs = [
        Job.of(my_cell, key=f"{cfg}/{wl}", config=cfg, workload=wl)
        for cfg in configs for wl in workloads
    ]
    runner = SweepRunner(jobs=4, root_seed=7, cache=".cache",
                         policy="degrade", retry=RetryPolicy(timeout_s=300.0),
                         checkpoint=".cache/sweep.journal")
    values = runner.values(jobs)
"""

from .backends import (
    BackendUnavailableError,
    CellTask,
    ProcessPoolBackend,
    TaskOutcome,
    TransientSubmitError,
)
from .cache import ResultCache, code_fingerprint, invalidate_fingerprints
from .checkpoint import SweepJournal, sweep_id
from .faults import (
    Fault,
    FaultInjector,
    FaultPlan,
    InjectedCrashError,
    InjectedFaultError,
    permanent_cells,
)
from .job import Job, JobResult, callable_spec, resolve_callable, run_job
from .policy import DEGRADE, FAILURE_POLICIES, STRICT, RetryPolicy, parse_failure_policy
from .runner import JOBS_ENV, SweepRunner, default_jobs
from .seeding import canonical_repr, derive_seed, stable_digest, stable_hash

__all__ = [
    "BackendUnavailableError",
    "CellTask",
    "DEGRADE",
    "FAILURE_POLICIES",
    "Fault",
    "FaultInjector",
    "FaultPlan",
    "InjectedCrashError",
    "InjectedFaultError",
    "JOBS_ENV",
    "Job",
    "JobResult",
    "ProcessPoolBackend",
    "ResultCache",
    "RetryPolicy",
    "STRICT",
    "SweepJournal",
    "SweepRunner",
    "TaskOutcome",
    "TransientSubmitError",
    "callable_spec",
    "canonical_repr",
    "code_fingerprint",
    "default_jobs",
    "derive_seed",
    "invalidate_fingerprints",
    "parse_failure_policy",
    "permanent_cells",
    "resolve_callable",
    "run_job",
    "stable_digest",
    "stable_hash",
    "sweep_id",
]
