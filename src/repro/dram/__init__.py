"""DDR3 DRAM device + controller models (the PS memory system).

* :class:`DramDevice` — data rate, geometry, per-bank open-row state
  and a sparse backing store.
* :class:`BankDramController` — bank machines with an open-/closed-page
  policy, a refresh engine, and a round-robin command multiplexer over
  per-master queues; command latencies come from :class:`BankTiming`.
"""

from .bank import (
    PAGE_POLICIES,
    REFRESH_MODES,
    BankDramController,
    BankTiming,
    MasterLedger,
    MemoryRequest,
)
from .device import DdrTiming, DramDevice

__all__ = [
    "BankDramController",
    "BankTiming",
    "DdrTiming",
    "DramDevice",
    "MasterLedger",
    "MemoryRequest",
    "PAGE_POLICIES",
    "REFRESH_MODES",
]
