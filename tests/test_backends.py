"""In-process and process-pool execution are interchangeable by
construction.

The same 12-cell sweep runs on both and must yield bit-identical
:class:`JobResult` lists — values, seeds, ordering, and failure records —
and, under a checkpoint, identical journal *content*.  Placement is
irrelevant because per-cell seeds derive from ``(root_seed, key)``
alone; these tests are the enforcement.
"""

from __future__ import annotations

import random

import pytest

from repro.errors import ConfigError
from repro.runner import (
    Fault,
    FaultPlan,
    Job,
    SweepJournal,
    SweepRunner,
    code_fingerprint,
    sweep_id,
)

ROOT_SEED = 11


def conformance_cell(a: int, b: str, seed: int) -> tuple:
    """Pure function of (params, seed): any placement, same bits."""
    rng = random.Random(seed)
    return (a, b, seed, rng.random(), tuple(rng.sample(range(100), 5)))


def make_grid() -> list[Job]:
    return [
        Job.of(conformance_cell, key=f"grid/{a}/{b}", a=a, b=b)
        for a in range(4)
        for b in ("x", "y", "z")
    ]


def make_runner(backend: str, **kwargs) -> SweepRunner:
    kwargs.setdefault("jobs", 3 if backend == "process" else 1)
    return SweepRunner(root_seed=ROOT_SEED, backend=backend, **kwargs)


BACKENDS = ("serial", "process")


# -- bit-identical results across backends -----------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
def test_backend_matches_serial_reference(backend):
    cells = make_grid()
    reference = SweepRunner(jobs=1, root_seed=ROOT_SEED, backend="serial").run(cells)
    runner = make_runner(backend)
    results = runner.run(cells)
    assert results == reference
    # Bit-identical, not merely equal: compare the full value payloads.
    assert [r.value for r in results] == [r.value for r in reference]
    assert [r.seed for r in results] == [r.seed for r in reference]
    assert runner.last_stats["backend"] == backend
    assert runner.last_stats["cells"] == len(cells)


@pytest.mark.parametrize("backend", BACKENDS)
def test_backend_matches_serial_under_faults(backend):
    """A crash + a permanent error still converge to the same results."""
    plan = FaultPlan.of(
        Fault(kind="crash", cell="grid/0/x", attempts=(1,)),
        Fault(kind="error", cell="grid/2/y", attempts=None),  # permanent
    )
    cells = make_grid()
    ref_runner = SweepRunner(jobs=1, root_seed=ROOT_SEED, backend="serial",
                             policy="degrade", fault_plan=plan)
    reference = ref_runner.run(cells)
    runner = make_runner(backend, policy="degrade", fault_plan=plan)
    results = runner.run(cells)
    assert results == reference
    assert [r.key for r in runner.last_failures] == ["grid/2/y"]
    assert runner.last_stats["retries"] >= 1


@pytest.mark.parametrize("backend", BACKENDS)
def test_backend_journal_content_identical(backend, tmp_path):
    """The checkpoint journal records the same completed cells with the
    same payloads in-process and on the pool (kept alive by a permanent
    failure under ``degrade``)."""
    plan = FaultPlan.of(Fault(kind="error", cell="grid/3/z", attempts=None))
    cells = make_grid()
    keys = [job.key for job in cells]
    jid = sweep_id(ROOT_SEED, keys, code_fingerprint())

    journals = {}
    for name, path in ((backend, tmp_path / f"{backend}.journal"),
                       ("serial", tmp_path / "reference.journal")):
        runner = make_runner(name, policy="degrade", fault_plan=plan,
                             checkpoint=path)
        runner.run(cells)
        journals[path] = SweepJournal(path).load(jid)

    this, reference = journals.values()
    assert set(this) == set(reference)
    for key in reference:
        assert this[key] == reference[key]
        assert this[key].value == reference[key].value


# -- construction ---------------------------------------------------------------


def test_unknown_backend_rejected():
    with pytest.raises(ConfigError):
        SweepRunner(backend="tcp")


def test_runner_rejects_direct_pool_import():
    """SweepRunner's module never touches concurrent.futures — pool
    mechanics live only in the process backend."""
    import repro.runner.runner as runner_module

    source = open(runner_module.__file__).read()
    assert "ProcessPoolExecutor" not in source
    assert "concurrent.futures" not in source
