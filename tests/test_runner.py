"""repro.runner — deterministic seeding, caching, and pool fallback.

The cells used here are module-level functions: runner jobs name their
callable by ``module:qualname`` spec so process-pool workers can import
them (lambdas and locals are rejected at Job construction).
"""

from __future__ import annotations

import os
import random
import threading
import warnings

import pytest

import repro.runner.backends.process as process_backend
import repro.runner.runner as runner_module
from repro.runner import (
    Job,
    JobResult,
    ResultCache,
    SweepRunner,
    canonical_repr,
    default_jobs,
    derive_seed,
    stable_hash,
)
from repro.sim.epoch import run_epoch_cell


def grid_cell(a: int, b: str, seed: int) -> tuple:
    """A cheap deterministic cell: value is a pure function of (params, seed)."""
    return (a, b, seed, random.Random(seed).random())


def seedless_cell(a: int) -> int:
    return a * 2


# -- seeding -----------------------------------------------------------------


def test_derive_seed_deterministic_and_bounded():
    assert derive_seed(7, "x") == derive_seed(7, "x")
    assert derive_seed(7, "x") != derive_seed(7, "y")
    assert derive_seed(7, "x") != derive_seed(8, "x")
    for key in ("a", "b", "sweep/mcf"):
        assert 0 <= derive_seed(0, key) < 2**32


def test_seed_and_key_derivations_pinned(tmp_path):
    """Exact derivation outputs: a change here silently re-seeds every
    paper sweep and orphans every cached cell, so it must be deliberate."""
    assert derive_seed(0, "sweep/mcf") == 2111981535
    assert derive_seed(53, "chaos/mcf") == 4206781135
    job = Job.of(run_epoch_cell, benchmark="mcf", horizon_s=20.0)
    assert job.key == "repro.sim.epoch:run_epoch_cell#04379106d9c4"
    key = ResultCache(tmp_path).key_for(
        job.fn, job.params, derive_seed(0, job.key), "fp"
    )
    assert key == "1cb6f4e7d1c55e62d392309dff14940cb24fc0b2db04fa9956ab18fd20b5405e"


def test_canonical_repr_is_order_insensitive_for_dicts():
    assert canonical_repr({"b": 1, "a": 2}) == canonical_repr({"a": 2, "b": 1})
    assert stable_hash({"b": 1, "a": 2}) == stable_hash({"a": 2, "b": 1})


def test_canonical_repr_rejects_default_object_repr():
    class Opaque:
        pass

    with pytest.raises(TypeError):
        canonical_repr(Opaque())


# -- jobs --------------------------------------------------------------------


def test_job_of_sorts_params_and_rejects_lambdas():
    j1 = Job.of(grid_cell, key="k", a=1, b="x")
    j2 = Job.of(grid_cell, key="k", b="x", a=1)
    assert j1.params == j2.params == (("a", 1), ("b", "x"))
    with pytest.raises(ValueError):
        Job.of(lambda: None, key="bad")


def test_job_auto_key_is_stable():
    j1 = Job.of(grid_cell, a=1, b="x")
    j2 = Job.of(grid_cell, a=1, b="x")
    j3 = Job.of(grid_cell, a=2, b="x")
    assert j1.key == j2.key != j3.key


def make_grid(n: int = 6) -> list[Job]:
    return [
        Job.of(grid_cell, key=f"grid/{a}/{b}", a=a, b=b)
        for a in range(n)
        for b in ("p", "q")
    ]


# -- determinism across worker counts ---------------------------------------


def test_parallel_results_identical_to_serial():
    cells = make_grid()
    serial = SweepRunner(jobs=1, root_seed=3).run(cells)
    parallel = SweepRunner(jobs=3, root_seed=3).run(cells)
    pair = SweepRunner(jobs=2, root_seed=3).run(cells)
    assert serial == parallel == pair
    # Seeds derive from (root_seed, key), never from worker identity.
    assert [r.seed for r in serial] == [
        derive_seed(3, job.key) for job in cells
    ]
    # A different root seed is a different experiment.
    assert SweepRunner(jobs=1, root_seed=4).run(cells) != serial


def test_explicit_job_seed_overrides_derivation():
    job = Job.of(grid_cell, key="k", seed=123, a=0, b="p")
    (result,) = SweepRunner(jobs=1, root_seed=99).run([job])
    assert result.seed == 123
    assert result.value == grid_cell(0, "p", 123)


def test_pass_seed_false_for_seedless_cells():
    job = Job.of(seedless_cell, key="k", pass_seed=False, a=21)
    assert SweepRunner(jobs=1).values([job]) == [42]


def test_duplicate_keys_rejected():
    cells = [Job.of(grid_cell, key="same", a=a, b="p") for a in (1, 2)]
    with pytest.raises(ValueError, match="duplicate"):
        SweepRunner(jobs=1).run(cells)


def test_default_jobs_reads_env(monkeypatch):
    monkeypatch.setenv(runner_module.JOBS_ENV, "5")
    assert SweepRunner().jobs == 5
    monkeypatch.setenv(runner_module.JOBS_ENV, "")
    assert SweepRunner().jobs == 1


def test_default_jobs_negative_clamps_to_serial_with_warning(monkeypatch):
    monkeypatch.setenv(runner_module.JOBS_ENV, "-3")
    monkeypatch.setattr(runner_module, "_warned_negative_jobs", False)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert default_jobs() == 1
    assert any("clamping to serial" in str(w.message) for w in caught)
    # The warning fires once; the clamp always holds (no ValueError from
    # ProcessPoolExecutor(max_workers=-3)).
    with warnings.catch_warnings(record=True) as again:
        warnings.simplefilter("always")
        assert SweepRunner().jobs == 1
    assert not again


# -- result cache ------------------------------------------------------------


def test_cache_hits_warm_run(tmp_path):
    cells = make_grid()
    runner = SweepRunner(jobs=1, root_seed=3, cache=tmp_path / "c")
    cold = runner.run(cells)
    assert runner.last_stats["executed"] == len(cells)
    assert runner.last_stats["cache_hits"] == 0

    warm_runner = SweepRunner(jobs=1, root_seed=3, cache=tmp_path / "c")
    warm = warm_runner.run(cells)
    assert warm_runner.last_stats["executed"] == 0
    assert warm_runner.last_stats["cache_hits"] == len(cells)
    assert all(r.cached for r in warm)
    # JobResult equality ignores the cached/duration bookkeeping fields.
    assert warm == cold


def test_cache_invalidates_on_param_or_seed_change(tmp_path):
    cache = ResultCache(tmp_path / "c")
    runner = SweepRunner(jobs=1, root_seed=3, cache=cache)
    runner.run([Job.of(grid_cell, key="k", a=1, b="p")])

    changed_param = SweepRunner(jobs=1, root_seed=3, cache=cache)
    changed_param.run([Job.of(grid_cell, key="k", a=2, b="p")])
    assert changed_param.last_stats["executed"] == 1

    changed_seed = SweepRunner(jobs=1, root_seed=8, cache=cache)
    changed_seed.run([Job.of(grid_cell, key="k", a=1, b="p")])
    assert changed_seed.last_stats["executed"] == 1

    unchanged = SweepRunner(jobs=1, root_seed=3, cache=cache)
    unchanged.run([Job.of(grid_cell, key="k", a=1, b="p")])
    assert unchanged.last_stats["executed"] == 0


def test_cache_mixed_hit_miss_preserves_order(tmp_path):
    cache = ResultCache(tmp_path / "c")
    first_half = make_grid()[:4]
    SweepRunner(jobs=1, root_seed=3, cache=cache).run(first_half)

    cells = make_grid()
    runner = SweepRunner(jobs=1, root_seed=3, cache=cache)
    results = runner.run(cells)
    assert runner.last_stats["cache_hits"] == 4
    assert runner.last_stats["executed"] == len(cells) - 4
    assert [r.key for r in results] == [job.key for job in cells]
    assert results == SweepRunner(jobs=1, root_seed=3).run(cells)


def test_cache_corrupt_entry_quarantined_not_rereads(tmp_path):
    cache = ResultCache(tmp_path / "c")
    job = Job.of(grid_cell, key="k", a=1, b="p")
    SweepRunner(jobs=1, root_seed=3, cache=cache).run([job])
    (entry,) = (tmp_path / "c").glob("*.pkl")
    entry.write_bytes(b"torn garbage, not a cache entry")

    warm_cache = ResultCache(tmp_path / "c")
    warm = SweepRunner(jobs=1, root_seed=3, cache=warm_cache)
    results = warm.run([job])
    assert warm.last_stats["executed"] == 1  # degraded to a miss...
    assert warm_cache.corrupt == 1
    # ...and the bad file left the lookup path on first detection.
    assert results == SweepRunner(jobs=1, root_seed=3).run([job])
    quarantined = list((tmp_path / "c" / "quarantine").glob("*.pkl"))
    assert [p.name for p in quarantined] == [entry.name]

    # The re-store healed the entry: the next run is a pure cache hit.
    healed = SweepRunner(jobs=1, root_seed=3, cache=ResultCache(tmp_path / "c"))
    healed.run([job])
    assert healed.last_stats["executed"] == 0


def test_cache_verify_scrub(tmp_path):
    cache = ResultCache(tmp_path / "c")
    cells = make_grid()[:4]
    SweepRunner(jobs=1, root_seed=3, cache=cache).run(cells)
    entries = sorted((tmp_path / "c").glob("*.pkl"))
    entries[0].write_bytes(b"\x00bitrot\x00")

    report = ResultCache(tmp_path / "c").verify()
    assert report["checked"] == 4
    assert report["ok"] == 3
    assert report["corrupt"] == [entries[0].stem]
    assert report["quarantined"] == 1
    # Scrub is idempotent: quarantined entries are out of the directory.
    assert ResultCache(tmp_path / "c").verify()["checked"] == 3


def lock_cell(a: int):
    """A value no pickler accepts (cannot be cached, journalled, or
    returned from a pool worker)."""
    return threading.Lock() if a == 1 else a


@pytest.mark.parametrize("jobs", [1, 2])
def test_unpicklable_value_with_cache_skips_the_store(tmp_path, jobs):
    cells = [Job.of(lock_cell, key=f"l/{a}", pass_seed=False, a=a)
             for a in range(3)]
    runner = SweepRunner(jobs=jobs, cache=tmp_path / "c", policy="degrade")
    results = runner.run(cells)
    assert not runner.last_failures
    assert [r.value for r in results[::2]] == [0, 2]
    assert isinstance(results[1].value, type(threading.Lock()))
    # The unpicklable cell simply recomputes next run; the others hit.
    rerun = SweepRunner(jobs=1, cache=tmp_path / "c")
    rerun.run(cells)
    assert rerun.last_stats["cache_hits"] == 2
    assert rerun.last_stats["executed"] == 1


def test_cache_clear(tmp_path):
    cache = ResultCache(tmp_path / "c")
    runner = SweepRunner(jobs=1, cache=cache)
    runner.run(make_grid())
    assert cache.clear() > 0
    rerun = SweepRunner(jobs=1, cache=cache)
    rerun.run(make_grid())
    assert rerun.last_stats["executed"] == len(make_grid())


# -- serial fallback ---------------------------------------------------------


class _ExplodingPool:
    def __init__(self, *args, **kwargs):
        raise OSError("no processes in this sandbox")


def test_pool_failure_falls_back_to_serial(monkeypatch):
    monkeypatch.setattr(process_backend, "ProcessPoolExecutor", _ExplodingPool)
    cells = make_grid()
    runner = SweepRunner(jobs=4, root_seed=3)
    results = runner.run(cells)
    assert runner.last_stats["mode"] == "serial-fallback"
    assert results == SweepRunner(jobs=1, root_seed=3).run(cells)


def test_unpicklable_result_falls_back_to_serial():
    # A lambda *result* cannot cross the process boundary; the job itself
    # is importable.  The pool raises PicklingError and the runner retries
    # serially, where no pickling happens.
    cells = [
        Job.of(unpicklable_cell, key=f"u/{tag}", pass_seed=False, tag=tag)
        for tag in ("t0", "t1", "t2", "t3")
    ]
    runner = SweepRunner(jobs=2, root_seed=0)
    results = runner.run(cells)
    assert runner.last_stats["mode"] == "serial-fallback"
    assert [r.value()() for r in results] == ["t0", "t1", "t2", "t3"]


def unpicklable_cell(tag: str):
    return lambda: (lambda: tag)


class _AlwaysBrokenPool:
    """A pool whose every submit reports a dead worker — the repeated
    mid-sweep ``BrokenProcessPool`` shape (e.g. cgroup OOM-killing each
    fresh worker)."""

    def __init__(self, *args, **kwargs):
        pass

    def submit(self, fn, *args, **kwargs):
        from concurrent.futures.process import BrokenProcessPool

        raise BrokenProcessPool("worker died before the task ran")

    def shutdown(self, wait=True, cancel_futures=False):
        pass


def test_persistent_broken_pool_degrades_to_serial(monkeypatch):
    monkeypatch.setattr(process_backend, "ProcessPoolExecutor", _AlwaysBrokenPool)
    cells = make_grid()
    runner = SweepRunner(jobs=4, root_seed=3)
    results = runner.run(cells)
    assert runner.last_stats["mode"] == "serial-fallback"
    assert runner.last_stats["pool_breaks"] > 0
    assert results == SweepRunner(jobs=1, root_seed=3).run(cells)


def interruptible_cell(a: int, flag_path: str, seed: int) -> tuple:
    if a == 2 and os.path.exists(flag_path):
        raise KeyboardInterrupt
    return (a, seed)


def test_keyboard_interrupt_flushes_checkpoint_for_resume(tmp_path):
    flag = tmp_path / "interrupt-now"
    flag.touch()
    cells = [
        Job.of(interruptible_cell, key=f"k/{i}", a=i, flag_path=str(flag))
        for i in range(6)
    ]
    journal = tmp_path / "sweep.journal"
    runner = SweepRunner(jobs=1, root_seed=1, checkpoint=journal)
    with pytest.raises(KeyboardInterrupt):
        runner.run(cells)
    assert journal.exists()  # completed cells were flushed before the abort

    flag.unlink()  # "restart": the interrupt condition is gone
    resumed = SweepRunner(jobs=1, root_seed=1, checkpoint=journal)
    results = resumed.run(cells)
    assert resumed.last_stats["journal_hits"] == 2  # cells 0 and 1
    assert resumed.last_stats["executed"] == 4
    assert [r.key for r in results] == [job.key for job in cells]
    assert results == SweepRunner(jobs=1, root_seed=1).run(cells)
    assert not journal.exists()


def test_jobresult_equality_ignores_bookkeeping():
    a = JobResult(key="k", value=1, seed=2, cached=True, duration_s=0.5)
    b = JobResult(key="k", value=1, seed=2, cached=False, duration_s=9.9,
                  attempts=3, resumed=True)
    assert a == b
    # ...but a failure never equals a success.
    failed = JobResult(key="k", value=None, seed=2, ok=False,
                       error="boom", error_type="RuntimeError")
    assert failed != JobResult(key="k", value=None, seed=2)


# -- code fingerprint staleness ----------------------------------------------


def test_file_fingerprint_tracks_edits(tmp_path):
    from repro.runner.cache import _file_fingerprint, invalidate_fingerprints

    target = tmp_path / "cell_mod.py"
    target.write_text("X = 1\n")
    first = _file_fingerprint(str(target))
    # Unchanged file: the memo serves the same digest.
    assert _file_fingerprint(str(target)) == first

    # An edit must produce a fresh digest even in the same process (the
    # memo self-invalidates on the stat signature, not on process start).
    os.utime(target, ns=(1, 1))  # force a distinct mtime regardless of clock
    target.write_text("X = 2\n")
    second = _file_fingerprint(str(target))
    assert second != first

    # Reverting the content reverts the digest (content-addressed).
    target.write_text("X = 1\n")
    os.utime(target, ns=(2, 2))
    assert _file_fingerprint(str(target)) == first
    invalidate_fingerprints(str(target))
    assert _file_fingerprint(str(target)) == first


def test_tree_fingerprint_tracks_edits(tmp_path):
    from repro.runner.cache import _tree_fingerprint, invalidate_fingerprints

    root = tmp_path / "pkg"
    (root / "sub").mkdir(parents=True)
    (root / "a.py").write_text("A = 1\n")
    (root / "sub" / "b.py").write_text("B = 1\n")
    first = _tree_fingerprint(root)
    assert _tree_fingerprint(root) == first

    # Editing any file in the tree changes the digest...
    (root / "sub" / "b.py").write_text("B = 2\n")
    os.utime(root / "sub" / "b.py", ns=(1, 1))
    second = _tree_fingerprint(root)
    assert second != first
    # ...and so does adding a new one (the signature covers membership).
    (root / "c.py").write_text("C = 1\n")
    assert _tree_fingerprint(root) not in (first, second)

    invalidate_fingerprints()  # the big hammer clears every memo entry
    from repro.runner.cache import _fingerprints
    assert str(root) not in _fingerprints


def test_code_fingerprint_reflects_extra_module_edit(tmp_path):
    from repro.runner import code_fingerprint

    extra = tmp_path / "extra_cell.py"
    extra.write_text("def cell():\n    return 1\n")
    first = code_fingerprint(str(extra))
    assert code_fingerprint(str(extra)) == first

    extra.write_text("def cell():\n    return 2\n")
    os.utime(extra, ns=(1, 1))
    assert code_fingerprint(str(extra)) != first
