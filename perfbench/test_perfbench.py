"""Self-tests of the benchmark: output checks count failures, and tracing
stand-ins keep registered objects findable.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import copy
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import cases  # noqa: E402
import run  # noqa: E402
from probes import Probes  # noqa: E402


def test_perturbed_expectation_counts_exactly_one_failure():
    workload = cases.WORKLOADS["hammer_to_flip"]
    expected = json.loads(run.EXPECTED.read_text())["hammer_to_flip"]["1"]
    result = run.run_pass("hammer_to_flip", 1, "plain", time.monotonic() + 170)
    assert run.failures(workload, result["outputs"], expected) == []

    perturbed = copy.deepcopy(expected)
    perturbed["double-sided/seed+0"]["min_row_accesses"] += 1
    assert run.failures(workload, result["outputs"], perturbed) == ["double-sided/seed+0"]


def test_per_key_workload_counts_each_verdict():
    workload = cases.WORKLOADS["defense_grid"]
    expected = json.loads(run.EXPECTED.read_text())["defense_grid"]["1"]
    assert len(run.operations(workload, expected)) == 16
    perturbed = copy.deepcopy(expected)
    perturbed["grid"]["none/clflush"] = "protected"
    assert run.failures(workload, expected, perturbed) == ["grid/none/clflush"]


def test_case_that_raises_is_one_failure():
    workload = cases.WORKLOADS["hammer_to_flip"]
    expected = json.loads(run.EXPECTED.read_text())["hammer_to_flip"]["1"]
    outputs = dict(expected, **{"single-sided/seed+2": {"error": "RuntimeError: boom"}})
    assert run.failures(workload, outputs, expected) == ["single-sided/seed+2"]


def test_benchmark_json_matches_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in cases.WORKLOADS.items()
    }
    traced = {"layers": {}, "counts": {}, "wall_s": 1.0}
    metrics = run.layer_metrics(traced, 1.0)
    assert [m["name"] for m in spec["per_layer"]] == list(metrics)
    assert all(m["unit"] == metrics[m["name"]]["unit"] for m in spec["per_layer"])


def test_traced_registrations_stay_removable():
    from repro.defenses import Armor, Para
    from repro.presets import small_machine
    from repro.workloads import BackgroundMix

    probes = Probes(traced=True)
    probes.install()
    try:
        machine = small_machine()
        mix = BackgroundMix(seed=1)
        mix.attach(machine)
        assert len(machine._access_hooks) == 1
        mix.detach()
        assert machine._access_hooks == []

        controller = machine.memory.controller
        para, armor = Para(), Armor()
        para.install(machine)
        armor.install(machine)
        para.uninstall(machine)
        armor.uninstall(machine)
        assert controller._observers == [] and controller._row_filters == []
    finally:
        probes.uninstall()
    from repro.sim.machine import Machine

    assert not hasattr(Machine.execute, "__wrapped__")
