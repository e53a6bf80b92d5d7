"""Shared helpers for the benchmark harness.

Every bench prints its reproduced table/figure next to the paper's
reported values and also writes it to ``benchmarks/results/<name>.txt`` so
the EXPERIMENTS.md record can be assembled from a plain
``pytest benchmarks/ --benchmark-only`` run (add ``-s`` to see the tables
live).  Benches that have machine-readable numbers additionally pass
``data=`` to :func:`publish`, which lands next to the text as
``benchmarks/results/<name>.json`` for tooling (CI trend lines, the
hot-path speedup gate).

Sweep-shaped benches execute their (config x workload x seed) grids
through :func:`sweep_runner`, which honours the ``--jobs`` pytest option
/ ``REPRO_JOBS`` environment knob for parallelism (in-process when
serial, a local process pool otherwise — results are bit-identical
either way) and keeps an incremental result cache under
``benchmarks/results/.cache/``.  A failed cell fails its bench with one
``SweepError`` naming every failed cell; a rerun recomputes only the
cells the cache does not hold.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

from repro.runner import ResultCache, SweepRunner

RESULTS_DIR = Path(__file__).parent / "results"
CACHE_DIR = RESULTS_DIR / ".cache"

#: Environment knob disabling the on-disk sweep cache (any falsy value).
CACHE_ENV = "REPRO_SWEEP_CACHE"


def _write_atomic(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` via tmp file + ``os.replace`` so parallel
    bench runs can never interleave or leave a torn result file."""
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name}-", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def publish(name: str, text: str, data: dict | None = None) -> None:
    """Print a result block and persist it under benchmarks/results/.

    ``data``, when given, is written as ``<name>.json`` beside the text
    so downstream tooling never has to parse the human tables.  Both
    files are written atomically.
    """
    banner = f"\n{'=' * 72}\n{name}\n{'=' * 72}\n"
    print(banner + text)
    RESULTS_DIR.mkdir(exist_ok=True)
    _write_atomic(RESULTS_DIR / f"{name}.txt", text + "\n")
    if data is not None:
        _write_atomic(
            RESULTS_DIR / f"{name}.json",
            json.dumps(data, indent=2, sort_keys=True) + "\n",
        )


def sweep_cache() -> ResultCache | None:
    """The shared bench result cache (``REPRO_SWEEP_CACHE=0`` disables)."""
    if os.environ.get(CACHE_ENV, "1").lower() in ("0", "false", "no", "off"):
        return None
    return ResultCache(CACHE_DIR)


def sweep_runner(root_seed: int, jobs: int | None = None) -> SweepRunner:
    """A :class:`SweepRunner` wired to the bench harness conventions:
    worker count from ``--jobs``/``REPRO_JOBS`` unless overridden, result
    cache under ``benchmarks/results/.cache/``."""
    return SweepRunner(jobs=jobs, root_seed=root_seed, cache=sweep_cache())


def anvil_table2_text() -> str:
    """Table 2 (detector parameters) — printed alongside every ANVIL bench."""
    from repro.core import AnvilConfig

    config = AnvilConfig.baseline()
    return (
        "Table 2 - Rowhammer Detector Parameters (baseline)\n"
        f"  LLC_MISS_THRESHOLD : {config.llc_miss_threshold}\n"
        f"  Miss Count Duration (tc) : {config.tc_ms} ms\n"
        f"  Sampling Duration  (ts) : {config.ts_ms} ms\n"
        f"  Sampling rate           : {config.sampling_rate_hz:.0f} samples/s\n"
    )
