"""Deterministic seed derivation and stable structural hashing.

Everything the sweep runner does — per-job seeds, cache keys, job
identities — must be reproducible across processes, interpreter launches,
and machines.  Python's builtin ``hash`` is randomized per process
(``PYTHONHASHSEED``), so this module provides a canonical-form SHA-256
hash instead and derives per-job seeds from it.
"""

from __future__ import annotations

import hashlib
from dataclasses import fields, is_dataclass
from typing import Any

#: Seeds are truncated to 32 bits so they stay friendly to every consumer
#: (``random.Random``, numpy-style generators, C extensions).
SEED_BITS = 32
SEED_MASK = (1 << SEED_BITS) - 1


def canonical_repr(obj: Any) -> str:
    """A stable textual form of ``obj`` for hashing.

    Supports the types sweep parameters are made of: scalars, strings,
    bytes, tuples/lists, dicts (sorted by key), sets/frozensets (sorted),
    and dataclasses (class name + field items).  Anything else must
    provide a deterministic ``repr`` — instances that default to
    ``<... at 0x7f...>`` are rejected because their repr embeds a memory
    address and would poison cache keys.
    """
    if obj is None or isinstance(obj, (bool, int, str, bytes)):
        return repr(obj)
    if isinstance(obj, float):
        return repr(obj)  # repr(float) is shortest-roundtrip, stable
    if isinstance(obj, (tuple, list)):
        inner = ",".join(canonical_repr(x) for x in obj)
        return f"[{inner}]" if isinstance(obj, list) else f"({inner})"
    if isinstance(obj, dict):
        items = sorted((canonical_repr(k), canonical_repr(v)) for k, v in obj.items())
        return "{" + ",".join(f"{k}:{v}" for k, v in items) + "}"
    if isinstance(obj, (set, frozenset)):
        return "set{" + ",".join(sorted(canonical_repr(x) for x in obj)) + "}"
    if is_dataclass(obj) and not isinstance(obj, type):
        items = ",".join(
            f"{f.name}={canonical_repr(getattr(obj, f.name))}" for f in fields(obj)
        )
        return f"{type(obj).__name__}({items})"
    if type(obj).__repr__ is object.__repr__:
        raise TypeError(
            f"cannot canonicalise {type(obj).__name__}: default object repr "
            "is not deterministic (give the job plain-data params instead)"
        )
    return repr(obj)


def stable_digest(*parts: Any) -> str:
    """Full hex SHA-256 of ``parts`` (cache keys / filenames)."""
    return hashlib.sha256(
        "\x1f".join(canonical_repr(p) for p in parts).encode()
    ).hexdigest()


def stable_hash(*parts: Any) -> int:
    """A 64-bit hash of ``parts`` that is identical in every process: the
    first 8 bytes of :func:`stable_digest`, big-endian."""
    return int(stable_digest(*parts)[:16], 16)


def derive_seed(root_seed: int, job_key: str) -> int:
    """The per-job seed for ``job_key`` under ``root_seed``.

    A pure function of its arguments: the same grid swept with the same
    root seed gets the same per-cell seeds no matter how cells are
    ordered, chunked, or distributed across workers.
    """
    return stable_hash("seed", root_seed, job_key) & SEED_MASK
