"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures without masking programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigError(ReproError):
    """A configuration dataclass was constructed with invalid values."""


class AddressError(ReproError):
    """An address was out of range or misaligned for the operation."""


class TranslationError(AddressError):
    """A virtual address has no mapping in the simulated page tables."""


class AllocationError(ReproError):
    """The simulated virtual memory system could not satisfy an allocation."""


class PagemapRestrictedError(ReproError):
    """The simulated ``/proc/pagemap`` interface is restricted (post-2015
    kernel hardening) and the caller lacks privilege to read it."""


class ClflushRestrictedError(ReproError):
    """The CLFLUSH instruction has been disallowed on this machine
    (NaCl-style sandbox mitigation)."""


class PmuError(ReproError):
    """Invalid PMU programming (unknown event, bad sample period, ...)."""


class SimulationError(ReproError):
    """The simulation reached an inconsistent state."""


class EvictionSetError(ReproError):
    """An eviction set could not be constructed for a target address."""


class SweepError(ReproError):
    """One or more sweep cells failed; raised once every cell has run.

    ``failures`` holds the structured :class:`~repro.runner.JobResult`
    error records (``ok=False``) of every cell that raised, lost its
    pool worker, or returned a value that could not cross the process
    boundary; the surviving results are in ``results`` so a caller can
    still inspect (or salvage) the partial sweep.
    """

    def __init__(self, failures, results=None):
        self.failures = list(failures)
        self.results = list(results) if results is not None else []
        keys = ", ".join(r.key for r in self.failures)
        super().__init__(f"{len(self.failures)} sweep cell(s) failed: {keys}")


class CacheCorruptionError(ReproError):
    """A result-cache entry failed its integrity check (bad magic, torn
    payload, or checksum mismatch)."""
