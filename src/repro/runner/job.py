"""The sweep job model.

A :class:`Job` names one independent, seeded experiment cell: a callable
(referenced directly or as a ``"module:qualname"`` spec so it can cross
process boundaries), its keyword parameters, and an optional explicit
seed.  Jobs are plain data — picklable, hashable, and with a stable
identity — which is what lets the runner fan them out over a process
pool, key an on-disk cache on them, and still aggregate results in input
order.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from typing import Any, Callable

from .seeding import canonical_repr, stable_digest


def callable_spec(fn: Callable | str) -> str:
    """``"module:qualname"`` for a module-level callable (or pass through).

    Only importable, module-level functions can cross a process boundary
    by name; lambdas and closures are rejected up front with a clear
    message rather than failing inside a worker.
    """
    if isinstance(fn, str):
        if ":" not in fn:
            raise ValueError(f"callable spec must look like 'module:name', got {fn!r}")
        return fn
    name = getattr(fn, "__qualname__", None)
    module = getattr(fn, "__module__", None)
    if not name or not module or "<locals>" in name or name == "<lambda>":
        raise ValueError(
            f"job callable {fn!r} is not a module-level function; "
            "sweep cells must be importable by name"
        )
    return f"{module}:{name}"


def resolve_callable(spec: str) -> Callable:
    """Import the callable a ``"module:qualname"`` spec names."""
    module_name, _, qualname = spec.partition(":")
    obj: Any = importlib.import_module(module_name)
    for part in qualname.split("."):
        obj = getattr(obj, part)
    if not callable(obj):
        raise TypeError(f"{spec} resolved to non-callable {obj!r}")
    return obj


@dataclass(frozen=True)
class Job:
    """One sweep cell: ``fn(**params, seed=seed)``.

    ``key`` identifies the cell within its sweep (it also namespaces the
    derived seed); when omitted it is built from the callable spec and
    params.  ``seed=None`` means "derive from the runner's root seed";
    ``pass_seed=False`` is for cells that are deterministic without one.
    """

    fn: str
    params: tuple[tuple[str, Any], ...] = ()
    key: str = ""
    seed: int | None = None
    pass_seed: bool = True

    def __post_init__(self) -> None:
        if not self.key:
            digest = stable_digest("job", self.fn, self.params)[:12]
            object.__setattr__(self, "key", f"{self.fn}#{digest}")

    @classmethod
    def of(
        cls,
        fn: Callable | str,
        key: str = "",
        seed: int | None = None,
        pass_seed: bool = True,
        **params: Any,
    ) -> "Job":
        """Build a job from a callable and keyword parameters."""
        items = tuple(sorted(params.items()))
        for name, value in items:
            canonical_repr(value)  # fail fast on non-canonical params
        return cls(
            fn=callable_spec(fn), params=items, key=key, seed=seed,
            pass_seed=pass_seed,
        )

    @property
    def kwargs(self) -> dict[str, Any]:
        return dict(self.params)


@dataclass(frozen=True)
class JobResult:
    """One completed cell, in sweep input order.

    Equality intentionally ignores the run-to-run bookkeeping fields
    (``duration_s``, ``cached``, ``resumed``, ``attempts``, and the
    error detail strings); two results compare equal iff the same job
    produced the same outcome (value + ``ok``) with the same seed — the
    property the equivalence gates assert between serial, parallel,
    cached, and fault-recovered executions.

    A failed cell (every retry exhausted) is still a ``JobResult``:
    ``ok=False``, ``value=None``, with the exception's class name and
    message captured in ``error_type``/``error`` — sweeps never lose an
    exception into a worker's void.
    """

    key: str
    value: Any
    seed: int | None
    cached: bool = field(default=False, compare=False)
    duration_s: float = field(default=0.0, compare=False)
    ok: bool = True
    error: str | None = field(default=None, compare=False)
    error_type: str | None = field(default=None, compare=False)
    attempts: int = field(default=1, compare=False)
    resumed: bool = field(default=False, compare=False)


def run_job(job: Job, seed: int | None) -> Any:
    """Execute one job in the current process (worker and serial path).

    The callable is looked up by its ``module:qualname`` spec at
    execution time and called with keyword arguments only.
    """
    fn = resolve_callable(job.fn)
    kwargs = job.kwargs
    if job.pass_seed:
        kwargs["seed"] = seed
    return fn(**kwargs)
