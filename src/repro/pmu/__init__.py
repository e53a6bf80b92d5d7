"""Performance-monitoring substrate.

Models the Intel PMU facilities ANVIL programs (paper Section 3.3):

- ``LONGEST_LAT_CACHE.MISS`` — LLC miss counting, read by ANVIL at the
  end of each tc window;
- ``MEM_TRANS_RETIRED.LOAD_LATENCY`` — PEBS load-latency sampling: loads
  whose latency exceeds a programmable threshold are sampled with their
  virtual address and data source;
- ``MEM_TRANS_RETIRED.PRECISE_STORE`` — precise-store sampling;
- ``MEM_LOAD_UOPS_MISC_RETIRED.LLC_MISS`` — retired load LLC-miss count
  (used to pick which facility to sample with).
"""

from .events import Event
from .counters import Counter
from .pebs import DataSource, PebsRecord, PebsSampler, SamplerConfig
from .pmu import Pmu

__all__ = [
    "Counter",
    "DataSource",
    "Event",
    "PebsRecord",
    "PebsSampler",
    "Pmu",
    "SamplerConfig",
]
