"""End-to-end and per-layer benchmark of the paper harness.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace {0|1}
    python3 perfbench/run.py --record     # rewrite expected.json from this code

Each pass of a workload runs in a fresh single-threaded process
(``child.py``) with every ``REPRO_*`` variable cleared.  Passes repeat
while another one still fits in ``--seconds``; the end-to-end metrics are
the medians over passes:

- ``wall_s``: host seconds of the workload body minus preparation calls;
- ``setup_s``: importing ``repro`` plus every preparation call, wherever
  it happens (see ``probes.SETUP_POINTS``);
- ``peak_rss_mb``: peak resident memory of the pass's process.

``--trace 1`` then runs two traced passes, which must report identical
counts (the run fails otherwise) and the same simulated outputs as the
untraced passes, and prints the per-layer metrics of the first.

Every case's simulated outputs are compared with ``expected.json``
(written by ``--record`` for both input seeds); a case that differs or
raises is one failed operation.  The last stdout line is the JSON
result.  Spans and a run summary go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
EXPECTED = HERE / "expected.json"

#: A run must end within 180 s; stop starting children past this.
DEADLINE_S = 170.0

#: Counts that must repeat exactly between two traced passes.
EXACT_COUNTS = (
    "sim.ops", "cache.accesses", "cache.llc_accesses", "cache.llc_misses",
    "mem.translations", "dram.accesses", "dram.row_hits", "dram.activations",
    "dram.flips", "dram.word_ops", "pmu.samples", "core.stage1_windows",
    "core.stage1_triggers", "core.stage2_windows", "core.detections",
    "core.selective_refreshes", "workloads.injected_ops", "attacks.iterations",
    "defenses.observer_refreshes", "runner.retries",
)


class RunError(Exception):
    """The benchmark cannot produce a result."""


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def run_pass(
    workload: str, seed: int, mode: str, deadline: float, spans: Path | None = None
) -> dict:
    """One pass in a fresh process; its parsed result."""
    argv = [sys.executable, str(HERE / "child.py"), workload, str(seed), mode]
    if spans is not None:
        argv.append(str(spans))
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RunError("out of time before the next pass")
    try:
        proc = subprocess.run(
            argv, env=child_env(), cwd=ROOT, capture_output=True, text=True,
            timeout=remaining,
        )
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"{mode} pass of {workload} ran past the deadline") from exc
    if proc.returncode != 0:
        raise RunError(f"{mode} pass of {workload} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def operations(workload, outputs: dict) -> dict:
    """Outputs per checked operation: one per case, or one per output key
    of a ``per_key`` case (a grid cell's verdict)."""
    if not workload.per_key:
        return outputs
    return {f"{case}/{key}": value for case, out in outputs.items() for key, value in out.items()}


def failures(workload, outputs: dict, expected: dict) -> list[str]:
    """Operations whose outputs differ from ``expected`` (or raised)."""
    got = operations(workload, outputs)
    want = operations(workload, expected)
    return sorted(op for op in want if got.get(op) != want[op])


def layer_metrics(traced: dict, untraced_wall_s: float) -> dict:
    """The 32 per-layer metrics of one traced pass."""
    t = traced["layers"]
    c = traced["counts"]

    def ratio(num: str, den: str) -> float:
        return c.get(num, 0) / c[den] if c.get(den) else 0.0

    s, n, r = "s", "count", "ratio"
    values = {
        "presets.build_s": (t.get("presets.build", 0.0), s),
        "sim.self_s": (t.get("sim", 0.0), s),
        "sim.ops": (c.get("sim.ops", 0), n),
        "sim.host_ns_per_op": (
            untraced_wall_s * 1e9 / c["sim.ops"] if c.get("sim.ops") else 0.0, "ns"
        ),
        "cache.self_s": (t.get("cache", 0.0), s),
        "cache.accesses": (c.get("cache.accesses", 0), n),
        "cache.llc_miss_ratio": (ratio("cache.llc_misses", "cache.llc_accesses"), r),
        "mem.self_s": (t.get("mem", 0.0), s),
        "mem.translations": (c.get("mem.translations", 0), n),
        "dram.self_s": (t.get("dram", 0.0), s),
        "dram.activations": (c.get("dram.activations", 0), n),
        "dram.row_hit_ratio": (ratio("dram.row_hits", "dram.accesses"), r),
        "dram.flips": (c.get("dram.flips", 0), n),
        "dram.word_ops": (c.get("dram.word_ops", 0), n),
        "dram.word_self_s": (t.get("dram_word", 0.0), s),
        "pmu.self_s": (t.get("pmu", 0.0), s),
        "pmu.samples": (c.get("pmu.samples", 0), n),
        "core.self_s": (t.get("core", 0.0), s),
        "core.stage2_windows": (c.get("core.stage2_windows", 0), n),
        "core.trigger_ratio": (ratio("core.stage1_triggers", "core.stage1_windows"), r),
        "core.detect_ratio": (ratio("core.detections", "core.stage2_windows"), r),
        "core.selective_refreshes": (c.get("core.selective_refreshes", 0), n),
        "workloads.self_s": (t.get("workloads", 0.0), s),
        "workloads.injected_ops": (c.get("workloads.injected_ops", 0), n),
        "attacks.prepare_s": (t.get("attacks.prepare", 0.0), s),
        "attacks.iterations": (c.get("attacks.iterations", 0), n),
        "defenses.self_s": (t.get("defenses", 0.0), s),
        "defenses.observer_refreshes": (c.get("defenses.observer_refreshes", 0), n),
        "exploits.self_s": (t.get("exploits", 0.0), s),
        "runner.overhead_s": (c.get("runner.overhead_ns", 0) / 1e9, s),
        "runner.retries": (c.get("runner.retries", 0), n),
        "trace.overhead_ratio": (traced["wall_s"] / untraced_wall_s, r),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def largest_layer(traced: dict) -> tuple[str, float]:
    """The layer with the most self time, and its share of all self time."""
    layers = {k: v for k, v in traced["layers"].items() if "." not in k}
    name = max(layers, key=layers.get)
    return name, layers[name] / sum(layers.values())


def benchmark(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    import cases  # needs src/ on sys.path; fails in a checkout without it

    start = time.monotonic()
    deadline = start + DEADLINE_S
    workload = cases.WORKLOADS[workload_name]
    in_seed = cases.input_seed(seed)
    expected = json.loads(EXPECTED.read_text())[workload_name][str(in_seed)]
    compileall.compile_dir(SRC / "repro", quiet=1)  # import from bytecode, as users do
    OUT.mkdir(exist_ok=True)
    stem = f"{workload_name}-seed{seed}"

    passes: list[dict] = []
    failed: list[str] = []
    attempted = 0
    while True:
        began = time.monotonic()
        result = run_pass(workload_name, in_seed, "plain", deadline)
        passes.append(result)
        attempted += len(operations(workload, expected))
        failed += failures(workload, result["outputs"], expected)
        took = time.monotonic() - began
        if time.monotonic() + took - start > seconds:
            break

    summary = {
        "workload": workload_name, "seed": seed, "input_seed": in_seed,
        "env": passes[0]["env"], "passes": passes,
    }
    def median(key: str) -> float:
        return statistics.median(p[key] for p in passes)

    wall_s = median("wall_s")
    if not trace:
        metrics = {
            "wall_s": {"value": wall_s, "unit": "s"},
            "setup_s": {"value": median("setup_s"), "unit": "s"},
            "peak_rss_mb": {"value": median("peak_rss_mb"), "unit": "MB"},
        }
    else:
        traced = [
            run_pass(workload_name, in_seed, "traced", deadline, OUT / f"{stem}-spans{k}.json")
            for k in (1, 2)
        ]
        pairs = {name: tuple(t["counts"].get(name, 0) for t in traced) for name in EXACT_COUNTS}
        differing = {name: pair for name, pair in pairs.items() if pair[0] != pair[1]}
        if differing:
            raise RunError(f"counts differ between two traced passes: {differing}")
        for t in traced:  # tracing must not change the simulation
            attempted += len(operations(workload, expected))
            mismatched = failures(workload, t["outputs"], passes[0]["outputs"])
            failed += [f"traced {op}" for op in mismatched]
        metrics = layer_metrics(traced[0], wall_s)
        layer, share = largest_layer(traced[0])
        summary.update(traced=traced, largest_layer={"layer": layer, "share": share})
    summary["metrics"] = metrics
    summary["failed"] = failed
    summary_file = OUT / f"{stem}-trace{int(trace)}.json"
    summary_file.write_text(json.dumps(summary, indent=1, sort_keys=True))

    print(f"{workload_name} seed {seed} (input seed {in_seed}): {len(passes)} passes, "
          f"wall_s {[round(p['wall_s'], 3) for p in passes]}, "
          f"setup_s {[round(p['setup_s'], 3) for p in passes]}")
    print(json.dumps({"env": summary["env"]}, sort_keys=True))
    if trace:
        print(f"largest self-time layer: {layer} ({share:.1%})")
    for op in failed:
        print(f"FAILED {op}", file=sys.stderr)
    return {
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": metrics,
    }


def record() -> None:
    """Rewrite expected.json from one pass per workload and input seed."""
    import cases

    deadline = time.monotonic() + 3600
    table = {
        name: {
            str(s): run_pass(name, s, "plain", deadline)["outputs"]
            for s in cases.INPUT_SEEDS
        }
        for name in cases.WORKLOADS
    }
    EXPECTED.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))
    try:
        if args.record:
            record()
            return 0
        if not args.workload:
            parser.error("--workload is required")
        result = benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    except (RunError, ImportError, OSError, KeyError) as exc:
        print(f"perfbench: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
