"""Failure and retry policies for sweep execution.

Two knobs govern what :class:`~.runner.SweepRunner` does when a cell
fails (raises, times out, or takes its worker process down):

- :data:`FailurePolicy` — what the *sweep* does once every cell has had
  its chances: ``"strict"`` raises an aggregated
  :class:`~repro.errors.SweepError`, ``"degrade"`` returns the full
  result list with failed cells recorded as structured
  :class:`~.job.JobResult` error records (the failure manifest lives in
  ``runner.last_failures`` / ``runner.last_stats``).
- :class:`RetryPolicy` — what one *cell* gets: bounded attempts with
  exponential backoff, an optional per-attempt wall-clock timeout
  (enforced in pool mode, where a stuck worker can be abandoned), and an
  in-process serial final attempt so no pool-level flakiness can starve
  a cell of its last chance.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigError
from .seeding import stable_hash

#: Granularity of the deterministic backoff jitter fraction.
_JITTER_BUCKETS = 4096
#: Multiplicative spread of a keyed backoff delay: ``±JITTER/2``.
JITTER = 0.5

#: Raise an aggregated :class:`~repro.errors.SweepError` when any cell fails.
STRICT = "strict"
#: Return partial results; failures become structured error records.
DEGRADE = "degrade"

FAILURE_POLICIES = (STRICT, DEGRADE)


def parse_failure_policy(name: str) -> str:
    """Validate a failure-policy name (``strict`` or ``degrade``)."""
    policy = str(name).lower()
    if policy not in FAILURE_POLICIES:
        raise ConfigError(
            f"unknown failure policy {name!r}; expected one of {FAILURE_POLICIES}"
        )
    return policy


@dataclass(frozen=True)
class RetryPolicy:
    """Per-cell retry/timeout behaviour.

    ``max_attempts`` counts every try, including the first; ``1`` means
    no retries.  A failed attempt ``n`` waits
    ``min(backoff_cap_s, backoff_base_s * 2**(n-1))`` before the cell is
    re-dispatched, spread by a *seeded* multiplicative factor of
    ``±JITTER/2`` derived from the cell key via
    :func:`~.seeding.stable_hash` — not from ``random`` or the wall
    clock, so the DET invariant holds — which decorrelates the retry
    times of cells that failed together (one pool break must not
    produce a synchronized retry storm).  ``timeout_s`` is the
    per-attempt wall-clock budget — enforced only when a process pool
    is running (an in-process cell cannot be preempted; the serial path
    runs without a deadline).  A pooled cell's last attempt always runs
    in-process in the parent, so a broken or saturated pool can never
    consume a cell's final chance.
    """

    max_attempts: int = 3
    backoff_base_s: float = 0.05
    backoff_cap_s: float = 2.0
    timeout_s: float | None = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.backoff_base_s < 0 or self.backoff_cap_s < 0:
            raise ConfigError("backoff durations must be >= 0")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ConfigError(f"timeout_s must be positive, got {self.timeout_s}")

    def backoff_s(self, failures: int, key: str | None = None) -> float:
        """Delay before the next attempt after ``failures`` failed ones.

        With a ``key`` (the cell's job key) the exponential delay is
        scaled by a deterministic factor in ``[1 - JITTER/2,
        1 + JITTER/2)`` derived from ``(key, failures)`` — the same cell
        always backs off the same amount, but sibling cells that failed
        in the same event spread out instead of retrying in lockstep.
        Without a key the schedule is the exact exponential.
        """
        if failures <= 0:
            return 0.0
        delay = min(self.backoff_cap_s, self.backoff_base_s * (2 ** (failures - 1)))
        if key is not None:
            frac = (stable_hash("retry-jitter", key, failures)
                    % _JITTER_BUCKETS) / _JITTER_BUCKETS
            delay *= 1.0 + JITTER * (frac - 0.5)
        return delay
