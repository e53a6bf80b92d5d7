"""Event counters.

ANVIL's stage 1 uses "the last-level cache miss counter facility"
(Section 3.3) to learn whether a tc window's misses reached the
threshold.  The detector reads the count when the window's timer fires,
which makes the same stage-1 decision the paper's overflow interrupt
signals, so a :class:`Counter` only counts.
"""

from __future__ import annotations

from .events import Event


class Counter:
    """One hardware event counter."""

    def __init__(self, event: Event) -> None:
        self.event = event
        self.value = 0

    def reset(self) -> None:
        self.value = 0

    def read(self) -> int:
        return self.value

    def increment(self, amount: int = 1) -> None:
        self.value += amount
