"""Run one pass of one workload in this fresh process; print it as JSON.

    python3 perfbench/child.py WORKLOAD INPUT_SEED {plain|traced} [SPANS_FILE]

The last stdout line is ``{"outputs", "wall_s", "setup_s", "peak_rss_mb",
"env"}``, plus ``"layers"`` and ``"counts"`` for a traced pass, whose
spans go to SPANS_FILE.  ``run.py`` starts this script and checks what it
prints; nothing here compares outputs.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment() -> dict:
    from repro.sim.kernels import accel_signature, engine_mode

    return {
        "engine_mode": engine_mode(),
        "accel_signature": accel_signature(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
    }


def main(argv: list[str]) -> int:
    workload_name, seed, mode = argv[0], int(argv[1]), argv[2]
    spans_file = argv[3] if len(argv) > 3 else None
    t0 = time.perf_counter()
    import cases
    import probes as probes_mod

    import_s = time.perf_counter() - t0

    workload = cases.WORKLOADS[workload_name]
    probes = probes_mod.Probes(traced=(mode == "traced"))
    probes.install()
    if probes.traced:
        probes.wrap_cell(cases, "run_cell")
    outputs: dict[str, dict] = {}
    start = time.perf_counter_ns()
    for name, case in workload.cases.items():
        probes.case_id = name
        with probes.span(f"case:{name}"):
            try:
                outputs[name] = case(seed)
            except Exception as exc:  # a case that raises is a failed operation
                outputs[name] = {"error": f"{type(exc).__name__}: {exc}"}
        probes.harvest()
    body_ns = time.perf_counter_ns() - start
    probes.uninstall()

    result = {
        "outputs": outputs,
        "wall_s": (body_ns - probes.setup_ns) / 1e9,
        "setup_s": import_s + probes.setup_ns / 1e9,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "env": environment(),
    }
    if probes.traced:
        result["layers"], result["counts"] = probes.summary()
        if spans_file:
            fields = ("id", "name", "start_ns", "end_ns", "parent", "case")
            with open(spans_file, "w") as fh:
                json.dump([dict(zip(fields, span)) for span in probes.spans], fh)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
