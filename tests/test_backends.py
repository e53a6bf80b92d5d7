"""In-process and process-pool execution are interchangeable by
construction.

The same 12-cell sweep runs on both and must yield bit-identical
:class:`JobResult` lists — values, seeds, and ordering — and the same
failure records when a cell raises: it runs once and is named.
Placement is irrelevant because per-cell seeds derive from
``(root_seed, key)`` alone; these tests are the enforcement.
"""

from __future__ import annotations

import random

import pytest

from repro.errors import ConfigError, SweepError
from repro.runner import Job, SweepRunner

ROOT_SEED = 11


def conformance_cell(a: int, b: str, seed: int) -> tuple:
    """Pure function of (params, seed): any placement, same bits."""
    rng = random.Random(seed)
    return (a, b, seed, rng.random(), tuple(rng.sample(range(100), 5)))


def make_grid(cell=conformance_cell, **extra) -> list[Job]:
    return [
        Job.of(cell, key=f"grid/{a}/{b}", a=a, b=b, **extra)
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


def counting_cell(a: int, b: str, calls: str, seed: int) -> tuple:
    """:func:`conformance_cell` that logs each execution to ``calls`` and
    raises for ``grid/2/y``."""
    with open(calls, "a") as log:
        log.write(f"{a}/{b}\n")
    if (a, b) == (2, "y"):
        raise RuntimeError("cell 2/y is broken")
    return conformance_cell(a, b, seed)


@pytest.mark.parametrize("backend", BACKENDS)
def test_failing_cell_runs_once_and_is_named(backend, tmp_path):
    calls = tmp_path / "calls.log"
    cells = make_grid(counting_cell, calls=str(calls))
    with pytest.raises(SweepError, match="grid/2/y") as excinfo:
        make_runner(backend).run(cells)
    assert len(calls.read_text().splitlines()) == len(cells)
    assert [(r.key, r.error_type) for r in excinfo.value.failures] == [
        ("grid/2/y", "RuntimeError")
    ]
    # The survivors are bit-identical to the clean grid's cells.
    reference = SweepRunner(jobs=1, root_seed=ROOT_SEED).run(make_grid())
    assert [r.value for r in excinfo.value.results] == [
        r.value for r in reference if r.key != "grid/2/y"
    ]
    assert len(excinfo.value.results) == len(cells) - 1


# -- construction ---------------------------------------------------------------


def test_unknown_backend_rejected():
    with pytest.raises(ConfigError):
        SweepRunner(backend="tcp")


def test_checkpoint_path_rejected(tmp_path):
    with pytest.raises(ConfigError, match="result cache"):
        SweepRunner(checkpoint=tmp_path / "sweep.journal")
