"""Execution-engine identity, for tools that record it.

The simulator has two engines, both pure standard library: the reference
interpreter (:meth:`~repro.sim.machine.Machine.run`) and its bit-identical
batched twin (:meth:`~repro.sim.machine.Machine.run_fast`).  The paper
experiments run on the batched twin, whose results are exact, with no
vector kernels, and these two constants say so.  ``perfbench/child.py``
records both in the environment block of every benchmark pass.
"""

from __future__ import annotations


def engine_mode() -> str:
    """The engine the experiment entry points run on."""
    return "exact"


def accel_signature() -> str:
    """The kernel backend: there is only the standard library."""
    return "stdlib"
