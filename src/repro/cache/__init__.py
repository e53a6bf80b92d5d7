"""Cache substrate: replacement policies, set-associative caches, and the
three-level Sandy Bridge-class hierarchy used by the attacks and by ANVIL.

Public entry points:

- :func:`repro.cache.replacement.make_policy` — construct one cache set
  under a replacement policy named ``"lru"``, ``"bit-plru"``, ``"nru"``,
  ``"tree-plru"``, ``"random"`` or ``"srrip"``.  The set object decides
  lookup, fill, victim and invalidation (``touch``/``discard``); every
  cache level, the standalone :class:`repro.cache.setmodel.SetModel` and
  the fast engine's cache walk drive the same objects.
- :class:`repro.cache.cache.Cache` — one set-associative cache level: the
  address arithmetic, statistics and one set object per set.
- :class:`repro.cache.hierarchy.CacheHierarchy` — inclusive L1/L2/LLC stack
  with CLFLUSH support and slice-hashed LLC.
"""

from .config import CacheConfig, HierarchyConfig
from .cache import Cache
from .hierarchy import CacheHierarchy, HierarchyResult
from .replacement import (
    BitPlru,
    Nru,
    RandomReplacement,
    ReplacementPolicy,
    Srrip,
    TreePlru,
    TrueLru,
    make_policy,
)

__all__ = [
    "BitPlru",
    "Cache",
    "CacheConfig",
    "CacheHierarchy",
    "HierarchyConfig",
    "HierarchyResult",
    "Nru",
    "RandomReplacement",
    "ReplacementPolicy",
    "Srrip",
    "TreePlru",
    "TrueLru",
    "make_policy",
]
