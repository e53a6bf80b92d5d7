"""repro.runner fault tolerance — deterministic injection, retry/timeout
recovery, failure policies, checkpoint/resume, cache integrity.

Fault specs ride inside worker payloads and fire *inside* the executing
process, so every recovery path here exercises the real machinery:
``crash`` hard-exits a pool worker (``BrokenProcessPool`` mid-sweep),
``hang`` sleeps past the per-cell deadline, ``error`` raises, and
``corrupt`` garbles the freshly written cache entry.
"""

from __future__ import annotations

import json
import random
import threading

import pytest

from repro.errors import SweepError
from repro.runner import (
    Fault,
    FaultInjector,
    FaultPlan,
    InjectedCrashError,
    Job,
    JobResult,
    ResultCache,
    RetryPolicy,
    SweepJournal,
    SweepRunner,
    permanent_cells,
    sweep_id,
)


def grid_cell(a: int, b: str, seed: int) -> tuple:
    """A cheap deterministic cell: value is a pure function of (params, seed)."""
    return (a, b, seed, random.Random(seed).random())


def make_grid(n: int) -> list[Job]:
    return [Job.of(grid_cell, key=f"c/{i}", a=i, b="p") for i in range(n)]


def clean_reference(cells: list[Job], root_seed: int) -> dict:
    runner = SweepRunner(jobs=1, root_seed=root_seed)
    return {r.key: r for r in runner.run(cells)}


FAST_RETRY = RetryPolicy(max_attempts=3, backoff_base_s=0.001)


# -- plans are data, deterministically -----------------------------------------


def test_fault_plan_random_is_seed_deterministic():
    a = FaultPlan.random(7, 32, crashes=2, errors=1, hangs=1, corruptions=1)
    b = FaultPlan.random(7, 32, crashes=2, errors=1, hangs=1, corruptions=1)
    c = FaultPlan.random(8, 32, crashes=2, errors=1, hangs=1, corruptions=1)
    assert a == b
    assert a != c
    assert len(a.faults) == 5
    assert len(set(a.cells())) == 5  # sampled without replacement


def test_fault_plan_rejects_bad_shapes():
    with pytest.raises(ValueError):
        Fault("meteor", 0)
    with pytest.raises(ValueError):
        Fault("error", 0, attempts=())
    with pytest.raises(ValueError):
        FaultPlan.random(0, 3, crashes=2, errors=2)


def test_fault_fires_on_selected_attempts_only():
    transient = Fault("error", 0, attempts=(1, 2))
    permanent = Fault("error", 1, attempts=None)
    assert transient.fires_on(1) and transient.fires_on(2)
    assert not transient.fires_on(3)
    assert all(permanent.fires_on(a) for a in (1, 2, 3, 99))


def test_permanent_cells_names_manifest_exactly():
    plan = FaultPlan.of(
        Fault("error", 2, attempts=None),
        Fault("crash", 4, attempts=(1,)),
        Fault("corrupt", 5),
    )
    keys = [f"c/{i}" for i in range(8)]
    assert permanent_cells(plan, keys, max_attempts=3) == ["c/2"]


def test_injector_spec_matches_by_key_too():
    plan = FaultPlan.of(Fault("error", "c/3", attempts=(2,)))
    injector = FaultInjector(plan)
    assert injector.spec_for(3, "c/3", 1) is None
    assert injector.spec_for(3, "c/3", 2) is not None
    assert injector.tripped == [("c/3", "error", 2)]


# -- retry / policy semantics (serial: no process pool involved) ----------------


def test_transient_error_recovers_via_retry():
    cells = make_grid(6)
    plan = FaultPlan.of(Fault("error", 2, attempts=(1,)))
    runner = SweepRunner(jobs=1, root_seed=9, retry=FAST_RETRY, fault_plan=plan)
    results = runner.run(cells)
    assert all(r.ok for r in results)
    assert {r.key: r for r in results} == clean_reference(cells, 9)
    assert runner.last_stats["retries"] == 1
    recovered = results[2]
    assert recovered.attempts == 2


def test_permanent_error_strict_raises_sweep_error():
    cells = make_grid(6)
    plan = FaultPlan.of(Fault("error", 4, attempts=None))
    runner = SweepRunner(jobs=1, root_seed=9, retry=FAST_RETRY, fault_plan=plan)
    with pytest.raises(SweepError) as excinfo:
        runner.run(cells)
    assert [r.key for r in excinfo.value.failures] == ["c/4"]
    assert len(excinfo.value.results) == len(cells)
    # The failure is a structured record, not a lost exception.
    (failure,) = excinfo.value.failures
    assert not failure.ok
    assert failure.error_type == "InjectedFaultError"
    assert failure.attempts == 3


def test_permanent_error_degrade_returns_manifest():
    cells = make_grid(6)
    plan = FaultPlan.of(Fault("error", 4, attempts=None))
    runner = SweepRunner(jobs=1, root_seed=9, policy="degrade",
                         retry=FAST_RETRY, fault_plan=plan)
    results = runner.run(cells)
    assert len(results) == len(cells)
    assert runner.last_stats["failed"] == ["c/4"]
    assert [r.key for r in runner.last_failures] == ["c/4"]
    clean = clean_reference(cells, 9)
    assert all(r == clean[r.key] for r in results if r.ok)


def test_crash_fault_in_process_raises_instead_of_exiting():
    # Serial execution must never os._exit the parent interpreter.
    cells = make_grid(3)
    plan = FaultPlan.of(Fault("crash", 1, attempts=None))
    runner = SweepRunner(jobs=1, root_seed=9, policy="degrade",
                         retry=FAST_RETRY, fault_plan=plan)
    results = runner.run(cells)
    assert results[1].error_type == InjectedCrashError.__name__


def test_backoff_schedule_is_exponential_and_capped():
    policy = RetryPolicy(max_attempts=5, backoff_base_s=0.1, backoff_cap_s=0.3)
    assert policy.backoff_s(0) == 0.0
    assert policy.backoff_s(1) == pytest.approx(0.1)
    assert policy.backoff_s(2) == pytest.approx(0.2)
    assert policy.backoff_s(3) == pytest.approx(0.3)  # capped
    assert policy.backoff_s(9) == pytest.approx(0.3)


def test_backoff_jitter_is_keyed_deterministic_and_bounded():
    policy = RetryPolicy(max_attempts=5, backoff_base_s=0.1,
                         backoff_cap_s=0.8)
    # Same (key, failure count) -> the same delay, every time.
    assert policy.backoff_s(2, "c/1") == policy.backoff_s(2, "c/1")
    # The spread stays within +-JITTER/2 (0.5/2) of the exact exponential.
    for failures, base in ((1, 0.1), (2, 0.2), (3, 0.4)):
        for key in (f"c/{i}" for i in range(32)):
            delay = policy.backoff_s(failures, key)
            assert base * 0.75 <= delay <= base * 1.25
    # Sibling cells that failed together spread out, not retry in lockstep.
    delays = {policy.backoff_s(1, f"c/{i}") for i in range(32)}
    assert len(delays) > 16
    # No key -> the exact exponential schedule.
    assert policy.backoff_s(2) == pytest.approx(0.2)


# -- pool recovery: crashes, hangs/timeouts, mid-sweep BrokenProcessPool --------


def test_worker_crash_mid_sweep_recovers_on_fresh_pool():
    cells = make_grid(10)
    plan = FaultPlan.of(Fault("crash", 3, attempts=(1,)))
    runner = SweepRunner(jobs=2, root_seed=11, retry=FAST_RETRY,
                         fault_plan=plan)
    results = runner.run(cells)
    assert all(r.ok for r in results)
    assert {r.key: r for r in results} == clean_reference(cells, 11)
    stats = runner.last_stats
    if stats["mode"] == "parallel":  # sandboxes without fork degrade serially
        assert stats["pool_breaks"] >= 1
        assert stats["retries"] >= 1


def test_hang_fault_trips_timeout_and_recovers():
    cells = make_grid(8)
    plan = FaultPlan.of(Fault("hang", 5, attempts=(1,), hang_s=1.0))
    runner = SweepRunner(
        jobs=2, root_seed=13,
        retry=RetryPolicy(max_attempts=3, backoff_base_s=0.001, timeout_s=0.2),
        fault_plan=plan,
    )
    results = runner.run(cells)
    assert all(r.ok for r in results)
    assert {r.key: r for r in results} == clean_reference(cells, 13)
    if runner.last_stats["mode"] == "parallel":
        assert runner.last_stats["timeouts"] >= 1


def test_acceptance_crash_error_hang_in_32_cell_sweep():
    """The ISSUE acceptance scenario: >=1 crash, >=1 permanent exception,
    >=1 hang/timeout in a >=32-cell sweep under ``degrade`` — the sweep
    completes, the manifest lists exactly the permanent cells, and every
    survivor is bit-identical to a clean serial run."""
    cells = make_grid(36)
    clean = clean_reference(cells, 5)
    plan = FaultPlan.of(
        Fault("crash", 3, attempts=(1,)),
        Fault("error", 10, attempts=None),
        Fault("hang", 17, attempts=(1,), hang_s=1.0),
    )
    runner = SweepRunner(
        jobs=2, root_seed=5, policy="degrade",
        retry=RetryPolicy(max_attempts=3, backoff_base_s=0.01, timeout_s=0.3),
        fault_plan=plan,
    )
    results = runner.run(cells)
    assert len(results) == len(cells)
    assert runner.last_stats["failed"] == permanent_cells(
        plan, [j.key for j in cells], runner.retry.max_attempts
    ) == ["c/10"]
    survivors = [r for r in results if r.ok]
    assert len(survivors) == len(cells) - 1
    assert all(r == clean[r.key] for r in survivors)
    if runner.last_stats["mode"] == "parallel":
        assert runner.last_stats["pool_breaks"] >= 1
        assert runner.last_stats["timeouts"] >= 1


# -- checkpoint / resume --------------------------------------------------------


def test_resume_recomputes_only_unfinished_cells(tmp_path):
    cells = make_grid(8)
    journal_path = tmp_path / "sweep.journal"
    plan = FaultPlan.of(Fault("error", 5, attempts=None))
    first = SweepRunner(jobs=1, root_seed=2, policy="degrade",
                        retry=FAST_RETRY, checkpoint=journal_path,
                        fault_plan=plan)
    first.run(cells)
    assert journal_path.exists()  # failures remain -> journal kept

    resumed = SweepRunner(jobs=1, root_seed=2, policy="degrade",
                          checkpoint=journal_path)
    results = resumed.run(cells)
    assert resumed.last_stats["journal_hits"] == 7
    assert resumed.last_stats["executed"] == 1  # only the failed cell
    assert all(r.ok for r in results)
    assert {r.key: r for r in results} == clean_reference(cells, 2)
    assert not journal_path.exists()  # clean completion removes it


def test_journal_ignores_foreign_sweep(tmp_path):
    journal_path = tmp_path / "sweep.journal"
    cells_a = make_grid(4)
    SweepRunner(jobs=1, root_seed=2, policy="degrade", retry=FAST_RETRY,
                checkpoint=journal_path,
                fault_plan=FaultPlan.of(Fault("error", 0, attempts=None))
                ).run(cells_a)
    assert journal_path.exists()

    # A different grid under the same path must not replay foreign cells.
    cells_b = [Job.of(grid_cell, key=f"other/{i}", a=i, b="q")
               for i in range(4)]
    other = SweepRunner(jobs=1, root_seed=2, checkpoint=journal_path)
    other.run(cells_b)
    assert other.last_stats["journal_hits"] == 0
    assert other.last_stats["executed"] == 4


def test_journal_survives_torn_final_line(tmp_path):
    journal_path = tmp_path / "sweep.journal"
    cells = make_grid(5)
    SweepRunner(jobs=1, root_seed=3, policy="degrade", retry=FAST_RETRY,
                checkpoint=journal_path,
                fault_plan=FaultPlan.of(Fault("error", 4, attempts=None))
                ).run(cells)
    # Simulate a writer killed mid-append: torn, newline-less JSON tail.
    with journal_path.open("a", encoding="utf-8") as fh:
        fh.write('{"key": "c/999", "seed": 1, "value": "truncat')

    resumed = SweepRunner(jobs=1, root_seed=3, checkpoint=journal_path)
    results = resumed.run(cells)
    assert resumed.last_stats["journal_hits"] == 4
    assert resumed.last_stats["executed"] == 1
    assert {r.key: r for r in results} == clean_reference(cells, 3)


def test_sweep_journal_roundtrip_unit(tmp_path):
    journal = SweepJournal(tmp_path / "j.jsonl")
    jid = sweep_id(1, ["a", "b"], "fp")
    journal.open_for(jid)
    assert journal.record(JobResult(key="a", value={"x": 1}, seed=7))
    # Unpicklable values are skipped, not fatal: the cell just recomputes.
    assert not journal.record(JobResult(key="b", value=lambda: 1, seed=8))
    journal.close()
    done = journal.load(jid)
    assert set(done) == {"a"}
    assert done["a"].value == {"x": 1}
    assert done["a"].seed == 7
    assert done["a"].resumed
    assert journal.load(sweep_id(2, ["a", "b"], "fp")) == {}


def test_two_writers_never_interleave_partial_lines(tmp_path):
    """Records appended by two journal handles (O_APPEND, one write per
    line) from racing threads land whole — every line parses and every
    record loads."""
    path = tmp_path / "shared.journal"
    jid = sweep_id(1, [f"c/{i}" for i in range(200)], "fp")
    a, b = SweepJournal(path), SweepJournal(path)
    a.open_for(jid, resume=False)
    b.open_for(jid, resume=True)

    def write(journal: SweepJournal, offset: int) -> None:
        for i in range(offset, 200, 2):
            # A long-ish payload raises the odds any non-atomic append
            # would tear mid-line.
            journal.record(JobResult(
                key=f"c/{i}", value={"i": i, "pad": "x" * 512}, seed=i,
            ))

    threads = [threading.Thread(target=write, args=(a, 0)),
               threading.Thread(target=write, args=(b, 1))]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    a.close()
    b.close()

    for line in path.read_text(encoding="utf-8").splitlines():
        if line:
            json.loads(line)  # every line is complete JSON
    fresh = SweepJournal(path)
    done = fresh.load(jid)
    assert set(done) == {f"c/{i}" for i in range(200)}
    assert fresh.skipped_records == 0
    assert all(done[f"c/{i}"].value["i"] == i for i in range(200))


def test_two_writer_torn_tail_recovers_and_survivors_resume(tmp_path):
    """One of two writers dies mid-append (torn, newline-less tail); the
    other writer's records and every complete record still load, and a
    resuming journal neutralises the tear."""
    path = tmp_path / "shared.journal"
    jid = sweep_id(2, [f"c/{i}" for i in range(8)], "fp")
    a, b = SweepJournal(path), SweepJournal(path)
    a.open_for(jid, resume=False)
    b.open_for(jid, resume=True)
    for i in range(4):
        a.record(JobResult(key=f"c/{i}", value=i, seed=i))
    for i in range(4, 7):
        b.record(JobResult(key=f"c/{i}", value=i, seed=i))
    a.close()
    b.close()
    # Writer B dies mid-append of c/7: a torn tail, exactly what a
    # single interrupted write() can leave behind.
    with path.open("a", encoding="utf-8") as fh:
        fh.write('{"key": "c/7", "seed": 7, "value": "trunc')

    survivor = SweepJournal(path)
    assert set(survivor.load(jid)) == {f"c/{i}" for i in range(7)}
    # A third writer re-opens for append: the tear is neutralised and
    # subsequent records parse cleanly after it.
    survivor.open_for(jid, resume=True)
    survivor.record(JobResult(key="c/7", value=7, seed=7))
    survivor.close()
    done = SweepJournal(path).load(jid)
    assert set(done) == {f"c/{i}" for i in range(8)}


# -- injected cache corruption --------------------------------------------------


def test_corrupt_fault_garbles_entry_then_scrub_recovers(tmp_path):
    cells = make_grid(6)
    cache = ResultCache(tmp_path / "cache")
    plan = FaultPlan.of(Fault("corrupt", 2))
    writer = SweepRunner(jobs=1, root_seed=4, cache=cache, fault_plan=plan)
    writer.run(cells)

    # The corrupted entry is detected (checksum), quarantined, recomputed.
    warm_cache = ResultCache(tmp_path / "cache")
    warm = SweepRunner(jobs=1, root_seed=4, cache=warm_cache)
    results = warm.run(cells)
    assert warm.last_stats["cache_hits"] == 5
    assert warm.last_stats["executed"] == 1
    assert warm_cache.corrupt == 1
    assert warm_cache.quarantined == 1
    assert {r.key: r for r in results} == clean_reference(cells, 4)

    # The recompute re-stored a good entry: fully warm now, scrub is clean.
    third = SweepRunner(jobs=1, root_seed=4, cache=ResultCache(tmp_path / "cache"))
    third.run(cells)
    assert third.last_stats["executed"] == 0
    report = ResultCache(tmp_path / "cache").verify()
    assert report["corrupt"] == []
    assert report["ok"] == report["checked"] == 6
