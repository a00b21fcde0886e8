"""Configuration knobs for the iGUARD detector.

Defaults follow the paper: 4-byte detection granularity, 16 bytes of memory
metadata per granule, ~2 MB of synchronization metadata, a 1 MB race-report
buffer, three lock-table entries per warp/thread, and both section 6.5
contention optimizations enabled.  The ablation experiments (Figure 12)
flip ``coalescing``/``dynamic_backoff``; the ScoRD baseline mode disables
``its_support`` and ``lockset``.  Every field models the paper's design,
one of its ablations, or memory pressure (``metadata_max_entries``);
none changes only the reproduction's own wall-clock speed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.errors import ConfigError

MiB = 1024 * 1024


@dataclass(frozen=True)
class IGuardConfig:
    """All detector knobs in one immutable object."""

    #: Detection granularity: bytes of data covered by one metadata entry.
    granularity_bytes: int = 4
    #: Bytes of metadata per granule (Figure 4: a 16-byte entry).
    metadata_entry_bytes: int = 16
    #: Size of the race-report buffer shipped to the CPU when full.
    race_buffer_bytes: int = 1 * MiB
    #: Bytes of one race record in the buffer.
    race_record_bytes: int = 64
    #: Lock-table entries per warp (and per thread); Figure 7 shows 3.
    lock_table_entries: int = 3
    #: Opportunistic coalescing of same-warp metadata accesses (section 6.5).
    coalescing: bool = True
    #: Dynamically adjusted exponential backoff on metadata locks (6.5).
    dynamic_backoff: bool = True
    #: Detect missing-syncwarp races under ITS (unique to iGUARD).
    its_support: bool = True
    #: Use the lockset technique for lock-protected accesses (R5).
    lockset: bool = True
    #: Allocate metadata through (simulated) UVM instead of pinning it.
    use_uvm: bool = True
    #: Pre-fault metadata into free device memory at setup (section 6.1).
    prefault: bool = True
    #: Treat every atomicCAS as a potential lock acquire even if it failed.
    #: The paper infers locks from the instruction pair without consulting
    #: the CAS outcome; set False to require a successful CAS.
    infer_lock_on_failed_cas: bool = True
    #: Reset memory metadata at each kernel launch: the implicit barrier at
    #: kernel completion orders everything across kernels (section 2.1).
    reset_metadata_per_kernel: bool = True
    #: Cap on materialized metadata entries (None = unbounded, the
    #: paper's UVM-backed on-demand table).  A finite cap models memory
    #: pressure: the table evicts its oldest entry to admit a new granule.
    #: Eviction *resets* the granule — the next access re-runs the
    #: first-access path — so pressure can only cost recall (exactly like
    #: the paper's finite lock tables), never report a false race.
    metadata_max_entries: Optional[int] = None
    #: How many previous accessors to track per granule.  The paper's
    #: default (and pragmatic choice) is 1 — only the last accessor and
    #: last writer fit in the 16-byte entry.  Section 6.7's ablation
    #: tracked the last 2, 4 and 8 accessors and "did not find any new
    #: races for any of the programs"; setting this above 1 reproduces
    #: that experiment (metadata overhead grows linearly with it).
    accessor_history: int = 1

    def __post_init__(self) -> None:
        if self.granularity_bytes not in (4, 8, 16, 32):
            raise ConfigError("granularity_bytes must be 4, 8, 16, or 32")
        if self.lock_table_entries < 1:
            raise ConfigError("lock_table_entries must be >= 1")
        if self.race_buffer_bytes < self.race_record_bytes:
            raise ConfigError("race buffer smaller than one record")
        if self.accessor_history < 1:
            raise ConfigError("accessor_history must be >= 1")
        if self.metadata_max_entries is not None and self.metadata_max_entries < 1:
            raise ConfigError("metadata_max_entries must be >= 1 (or None)")

    @property
    def race_buffer_capacity(self) -> int:
        """How many records fit in the buffer before a flush to the CPU."""
        return self.race_buffer_bytes // self.race_record_bytes

    def without_optimizations(self) -> "IGuardConfig":
        """The Figure 12 baseline: no coalescing, no dynamic backoff."""
        return replace(self, coalescing=False, dynamic_backoff=False)

    def scord_mode(self) -> "IGuardConfig":
        """ScoRD's detection feature set: scopes yes, ITS/lockset no."""
        return replace(self, its_support=False, lockset=False)

    def with_history(self, depth: int) -> "IGuardConfig":
        """The section 6.7 ablation: track the last ``depth`` accessors."""
        return replace(self, accessor_history=depth)


DEFAULT_CONFIG = IGuardConfig()
