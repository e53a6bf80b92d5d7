"""Generic memory-access workload generators.

Each workload allocates its own buffer on ``prepare`` and then yields an
infinite operation stream.  The generators cover the access-pattern
archetypes that matter to a rowhammer detector:

- :class:`StreamWorkload` — sequential scans: high miss rate, misses walk
  rows sequentially (no row reuse, should never look like hammering);
- :class:`RandomAccessWorkload` — uniform random over a working set:
  miss rate set by working-set size vs LLC, misses scattered over rows;
- :class:`PointerChaseWorkload` — dependent loads (mcf-style latency
  bound);
- :class:`ThrashWorkload` — a reuse loop slightly larger than the LLC:
  high miss rate *with row reuse*, the benign pattern most likely to look
  like an attack (the false-positive generator);
- :class:`MixedWorkload` — weighted interleaving of the above.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import Iterator

from ..sim.machine import Machine
from ..sim.ops import Op, compute, load, store
from ..units import MB


class Workload(ABC):
    """A preparable, replayable operation stream."""

    name: str = "workload"

    def __init__(self, think_cycles: int = 20, store_fraction: float = 0.0,
                 seed: int = 0) -> None:
        self.think_cycles = think_cycles
        self.store_fraction = store_fraction
        self.seed = seed
        self.prepared = False
        self._base = 0

    @abstractmethod
    def _length_bytes(self) -> int:
        """Buffer size to allocate."""

    @abstractmethod
    def _addresses(self) -> Iterator[int]:
        """Infinite stream of byte offsets into the buffer."""

    def prepare(self, machine: Machine) -> None:
        if self.prepared:
            return
        self._base = machine.memory.vm.mmap(self._length_bytes())
        self.prepared = True

    def ops(self) -> Iterator[Op]:
        """Infinite op stream: one memory op plus think time per address."""
        if not self.prepared:
            raise RuntimeError("call prepare(machine) before ops()")
        rng = random.Random(self.seed ^ 0xC0FFEE)
        think = self.think_cycles
        store_fraction = self.store_fraction
        for offset in self._addresses():
            vaddr = self._base + offset
            if store_fraction and rng.random() < store_fraction:
                yield store(vaddr)
            else:
                yield load(vaddr)
            if think:
                yield compute(think)


class StreamWorkload(Workload):
    """Sequential scan with a fixed stride, wrapping around the buffer."""

    name = "stream"

    def __init__(self, buffer_bytes: int = 64 * MB, stride: int = 64, **kwargs):
        super().__init__(**kwargs)
        self.buffer_bytes = buffer_bytes
        self.stride = stride

    def _length_bytes(self) -> int:
        return self.buffer_bytes

    def _addresses(self) -> Iterator[int]:
        offset = 0
        while True:
            yield offset
            offset = (offset + self.stride) % self.buffer_bytes


class RandomAccessWorkload(Workload):
    """Uniform random line accesses over a working set."""

    name = "random"

    def __init__(self, working_set_bytes: int = 16 * MB, line: int = 64, **kwargs):
        super().__init__(**kwargs)
        self.working_set_bytes = working_set_bytes
        self.line = line

    def _length_bytes(self) -> int:
        return self.working_set_bytes

    def _addresses(self) -> Iterator[int]:
        rng = random.Random(self.seed)
        lines = self.working_set_bytes // self.line
        while True:
            yield rng.randrange(lines) * self.line


class PointerChaseWorkload(Workload):
    """A permutation cycle of dependent loads over the working set."""

    name = "pointer-chase"

    def __init__(self, working_set_bytes: int = 8 * MB, line: int = 64, **kwargs):
        super().__init__(**kwargs)
        self.working_set_bytes = working_set_bytes
        self.line = line

    def _length_bytes(self) -> int:
        return self.working_set_bytes

    def _addresses(self) -> Iterator[int]:
        rng = random.Random(self.seed)
        lines = list(range(self.working_set_bytes // self.line))
        rng.shuffle(lines)
        position = 0
        while True:
            yield lines[position] * self.line
            position = (position + 1) % len(lines)


class ThrashWorkload(Workload):
    """Cyclic reuse over a footprint slightly exceeding the LLC.

    Every access misses (the reuse distance exceeds associativity) while
    the *same* lines — and therefore the same DRAM rows — are revisited
    every lap.  This is the benign pattern closest to hammering; ANVIL's
    bank-locality check is what keeps it from being flagged when its rows
    are served by open row buffers.
    """

    name = "thrash"

    def __init__(self, footprint_bytes: int = 6 * MB, line: int = 64, **kwargs):
        super().__init__(**kwargs)
        self.footprint_bytes = footprint_bytes
        self.line = line

    def _length_bytes(self) -> int:
        return self.footprint_bytes

    def _addresses(self) -> Iterator[int]:
        lines = self.footprint_bytes // self.line
        offset = 0
        while True:
            yield offset * self.line
            offset = (offset + 1) % lines


class MixedWorkload(Workload):
    """Weighted interleaving of component workloads (shared machine)."""

    name = "mixed"

    def __init__(self, components: list[tuple[Workload, float]], **kwargs):
        super().__init__(**kwargs)
        if not components:
            raise ValueError("MixedWorkload needs at least one component")
        self.components = components

    def _length_bytes(self) -> int:  # pragma: no cover - not used
        return 0

    def _addresses(self) -> Iterator[int]:  # pragma: no cover - not used
        raise NotImplementedError

    def prepare(self, machine: Machine) -> None:
        for workload, _ in self.components:
            workload.prepare(machine)
        self.prepared = True

    def ops(self) -> Iterator[Op]:
        if not self.prepared:
            raise RuntimeError("call prepare(machine) before ops()")
        rng = random.Random(self.seed ^ 0xD1CE)
        streams = [workload.ops() for workload, _ in self.components]
        weights = [weight for _, weight in self.components]
        while True:
            (stream,) = rng.choices(streams, weights=weights)
            yield next(stream)
