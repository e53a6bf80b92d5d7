"""Workloads: generic memory-access generators, SPEC2006-integer-calibrated
synthetic benchmarks, and background-load mixing for the heavy-load
experiments.

Real SPEC binaries cannot run on the simulated machine; the profiles in
:mod:`repro.workloads.spec` are calibrated so that each benchmark's two
ANVIL-relevant statistics — LLC miss rate relative to the stage-1
threshold, and the DRAM-row locality of its misses — match the published
characterisations the paper's results depend on (Section 4.3: mcf,
libquantum, omnetpp and xalancbmk cross the stage-1 threshold 95-99% of
the time; h264ref, gobmk, sjeng and hmmer less than 10%).
"""

from .generators import (
    MixedWorkload,
    PointerChaseWorkload,
    RandomAccessWorkload,
    StreamWorkload,
    ThrashWorkload,
    Workload,
)
from .spec import SPEC2006_INT, SpecProfile, SpecWorkload, spec_profile
from .background import BackgroundMix, interleave

__all__ = [
    "BackgroundMix",
    "MixedWorkload",
    "PointerChaseWorkload",
    "RandomAccessWorkload",
    "SPEC2006_INT",
    "SpecProfile",
    "SpecWorkload",
    "StreamWorkload",
    "ThrashWorkload",
    "Workload",
    "interleave",
    "spec_profile",
]
