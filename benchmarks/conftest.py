"""Make the benchmark directory importable (for ``_common``) and expose
the sweep worker count: ``pytest benchmarks/ --jobs 4`` fans sweep grids
out over 4 worker processes (equivalent to ``REPRO_JOBS=4``; results are
bit-identical to a serial run at any worker count).
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


def pytest_configure(config):
    jobs = config.getoption("--jobs", default=None)
    if jobs is not None:
        os.environ["REPRO_JOBS"] = str(int(jobs))
