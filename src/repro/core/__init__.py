"""iGUARD itself: the in-GPU race detector (the paper's contribution).

The subpackage mirrors the paper's section 6 structure:

- :mod:`repro.core.metadata` — the 16-byte memory-metadata entry (Fig. 4),
- :mod:`repro.core.syncstate` — synchronization metadata counters (6.1),
- :mod:`repro.core.locktable` — lock tables and protocol inference (6.3, Fig. 7),
- :mod:`repro.core.checks` — the Table 2 preliminary and race checks (6.4),
- :mod:`repro.core.contention` — coalescing + dynamic backoff (6.5),
- :mod:`repro.core.uvm` — UVM-backed metadata allocation (6.1),
- :mod:`repro.core.report` — race records and the 1 MB report buffer (5),
- :mod:`repro.core.detector` — the instrumentation tool tying it together.
"""

from repro.core.config import IGuardConfig
from repro.core.detector import IGuard
from repro.core.report import RaceRecord, RaceType

__all__ = [
    "IGuard",
    "IGuardConfig",
    "RaceRecord",
    "RaceType",
]
