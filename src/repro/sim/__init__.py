"""Simulated machine: CPU clock, memory system, PMU, and timers.

:class:`repro.sim.machine.Machine` executes streams of memory operations
(loads, stores, CLFLUSH, MFENCE, compute gaps) against the memory system,
keeping global time in CPU cycles; kernel-style software (ANVIL) hooks in
through timers and PMU interrupts.  :mod:`repro.sim.epoch` provides the
fast window-level model used for long-horizon SPEC overhead studies.
"""

from .ops import (
    CLFLUSH,
    COMPUTE,
    LOAD,
    MFENCE,
    PAIR_LOAD,
    STORE,
    Op,
    clflush,
    compute,
    load,
    mfence,
    pair_load,
    store,
)
from .machine import Machine, MachineConfig
from .results import RunResult

__all__ = [
    "CLFLUSH",
    "COMPUTE",
    "LOAD",
    "MFENCE",
    "Machine",
    "MachineConfig",
    "Op",
    "PAIR_LOAD",
    "RunResult",
    "STORE",
    "clflush",
    "compute",
    "load",
    "mfence",
    "pair_load",
    "store",
]
