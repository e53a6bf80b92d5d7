"""Declarative sweep execution: a seeded, cached map over an in-process
loop or a local process pool.

Every reproduced figure/table iterates a (config x workload x seed) grid
of independent, seeded simulations.  This package turns such a grid into
:class:`Job` cells, and :class:`SweepRunner` returns the same
input-ordered result list whether cells run in-process (``jobs=1``), on
a pool, or come from the on-disk result cache.  Each uncached cell runs
once; failed cells are named in one :class:`~repro.errors.SweepError`.

Quick form::

    from repro.runner import Job, SweepRunner

    jobs = [
        Job.of(my_cell, key=f"{cfg}/{wl}", config=cfg, workload=wl)
        for cfg in configs for wl in workloads
    ]
    runner = SweepRunner(jobs=4, root_seed=7, cache=".cache")
    values = runner.values(jobs)
"""

from .cache import ResultCache, code_fingerprint, invalidate_fingerprints
from .job import Job, JobResult, callable_spec, resolve_callable, run_job
from .runner import JOBS_ENV, SweepRunner, default_jobs
from .seeding import canonical_repr, derive_seed, stable_digest, stable_hash

__all__ = [
    "JOBS_ENV",
    "Job",
    "JobResult",
    "ResultCache",
    "SweepRunner",
    "callable_spec",
    "canonical_repr",
    "code_fingerprint",
    "default_jobs",
    "derive_seed",
    "invalidate_fingerprints",
    "resolve_callable",
    "run_job",
    "stable_digest",
    "stable_hash",
]
