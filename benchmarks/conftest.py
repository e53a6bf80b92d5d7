"""Make the benchmark directory importable (for ``_common``), keep
pytest-benchmark rounds minimal (each bench is a full experiment), and
expose the sweep execution knobs:

- ``pytest benchmarks/ --jobs 4`` fans sweep grids out over 4 worker
  processes (equivalent to ``REPRO_JOBS=4``; results are bit-identical
  to a serial run at any worker count);
- ``--fail-policy degrade`` returns partial sweep results plus a failure
  manifest instead of raising on the first exhausted cell
  (``REPRO_FAIL_POLICY``);
- ``--cell-timeout 300`` bounds each cell attempt's wall clock when
  cells run on the process pool (``REPRO_CELL_TIMEOUT``, seconds).
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))


def pytest_addoption(parser):
    parser.addoption(
        "--jobs",
        action="store",
        default=None,
        metavar="N",
        help="worker processes for sweep-shaped benches "
        "(0 = one per CPU; default: REPRO_JOBS or serial)",
    )
    parser.addoption(
        "--fail-policy",
        action="store",
        default=None,
        choices=("strict", "degrade"),
        help="sweep failure policy: strict raises an aggregated "
        "SweepError, degrade returns partial results + a failure "
        "manifest (default: REPRO_FAIL_POLICY or strict)",
    )
    parser.addoption(
        "--cell-timeout",
        action="store",
        default=None,
        metavar="S",
        help="per-attempt wall-clock budget (seconds) for each sweep "
        "cell, enforced when cells run on the process pool (default: "
        "REPRO_CELL_TIMEOUT or unlimited)",
    )


def pytest_configure(config):
    jobs = config.getoption("--jobs", default=None)
    if jobs is not None:
        os.environ["REPRO_JOBS"] = str(int(jobs))
    policy = config.getoption("--fail-policy", default=None)
    if policy is not None:
        os.environ["REPRO_FAIL_POLICY"] = policy
    timeout = config.getoption("--cell-timeout", default=None)
    if timeout is not None:
        os.environ["REPRO_CELL_TIMEOUT"] = str(float(timeout))
