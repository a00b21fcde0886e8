"""Race records, classification, and the report buffer.

iGUARD reports "identities of instructions, the address of the data
participating in a race, and the cause"; records accumulate in a 1 MB
buffer that is shipped to the CPU when full or at program end (section 5).
Races are classified by the first matching Table 2 condition:

========  ==================================  =========
R check   meaning                             Table 4 tag
========  ==================================  =========
R1        insufficient atomic scope           AS
R2        intra-warp race under ITS           ITS
R3        intra-threadblock race              BR
R4        inter-threadblock (device) race     DR
R5        improper locking (lockset)          IL
========  ==================================  =========

:data:`CAUSE_OF` is the one table behind every explanation of a race
type: the condition that fired, what it means, and the canonical fix.
The race forensics (``explain``) and the static checker both read it.

Races caused by misuse of Cooperative Groups have no dedicated check — CG
is built from the primitives, so they surface as one of the above (the
paper's Table 4 lists them as "CG (DR)").
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.obs.metrics import HOT


class RaceType(enum.Enum):
    """Race classification, tagged as in Table 4."""

    IMPROPER_LOCKING = "IL"
    ATOMIC_SCOPE = "AS"
    ITS = "ITS"
    INTRA_BLOCK = "BR"
    INTER_BLOCK = "DR"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class RaceCause:
    """Why a race of one type is reported, and how to repair it."""

    condition: str  # the Table 2 race check that fired, R1..R5
    text: str  # the paper's description of the condition (6.4, Table 2)
    fix: str  # the canonical repair (sections 3 and 7.1)


CAUSE_OF: Dict[RaceType, RaceCause] = {
    RaceType.ATOMIC_SCOPE: RaceCause(
        "R1", "insufficiently scoped atomic: the granule is used with "
        "block-scope atomics but the conflicting accesses come from "
        "different threadblocks",
        "widen the atomic's scope to device (e.g. atomicAdd instead of "
        "atomicAdd_block) for any variable read or updated across "
        "threadblocks"),
    RaceType.ITS: RaceCause(
        "R2", "intra-warp race under independent thread scheduling: same "
        "warp, not converged, no syncwarp and no intervening fence by the "
        "previous thread",
        "insert __syncwarp() between the warp-level phases that hand data "
        "between lanes"),
    RaceType.INTRA_BLOCK: RaceCause(
        "R3", "intra-threadblock race: same block, no intervening "
        "syncthreads and no intervening fence",
        "separate the producing and consuming phases with __syncthreads() "
        "(or publish with __threadfence_block() plus an atomic flag)"),
    RaceType.INTER_BLOCK: RaceCause(
        "R4", "inter-threadblock (device) race: different blocks and the "
        "previous thread executed no device-scope fence since its access",
        "have the producing thread execute __threadfence() (device scope) "
        "before publishing, or synchronize the whole grid with a correct "
        "cooperative-groups grid.sync()"),
    RaceType.IMPROPER_LOCKING: RaceCause(
        "R5", "improper locking (lockset): locks are in use for this "
        "granule but the previous and current lock sets do not intersect",
        "protect each shared location with one designated lock that every "
        "accessor acquires (lock the *data*, not the thread)"),
}


@dataclass(frozen=True)
class RaceRecord:
    """One detected race occurrence."""

    race_type: RaceType
    kernel: str
    ip: str
    access: str  # "load" / "store" / "atomic"
    address: int
    location: str  # human-readable "array[index]"
    warp_id: int
    lane: int
    block_id: int
    prev_warp_id: int
    prev_lane: int

    def describe(self) -> str:
        """One-line report in the spirit of the tool's CPU-side output."""
        return (
            f"[{self.race_type}] {self.access} at {self.ip} on "
            f"{self.location} (0x{self.address:x}) by thread "
            f"w{self.warp_id}.t{self.lane} (block {self.block_id}); "
            f"previous access by w{self.prev_warp_id}.t{self.prev_lane}"
        )


@dataclass
class RaceBuffer:
    """The fixed-size device-side buffer of race records.

    When the buffer fills, its contents are "sent to the CPU" — drained
    into :attr:`reported` — exactly as the real tool does without stopping
    execution.  ``flushes`` counts those CPU round-trips.

    ``max_records`` optionally bounds the *total* retained records
    (pending plus reported), modeling a host side that stops accepting
    flushes — e.g. a pathological workload producing millions of dynamic
    occurrences.  Overflowing pushes are counted in :attr:`dropped`
    instead of silently discarded; ``None`` (the default) keeps the
    historical unbounded behaviour.
    """

    capacity: int
    max_records: Optional[int] = None
    pending: List[RaceRecord] = field(default_factory=list)
    reported: List[RaceRecord] = field(default_factory=list)
    flushes: int = 0
    dropped: int = 0

    def push(self, record: RaceRecord) -> bool:
        """Append a record, flushing to the host if the buffer is full.

        Returns False (and counts the record as dropped) when the
        ``max_records`` cap is already reached.
        """
        if (
            self.max_records is not None
            and len(self.pending) + len(self.reported) >= self.max_records
        ):
            self.dropped += 1
            if HOT.enabled:
                HOT.races_dropped.inc()
            return False
        self.pending.append(record)
        if len(self.pending) >= self.capacity:
            self.flush()
        return True

    def flush(self) -> None:
        """Ship pending records to the host side."""
        if self.pending:
            self.reported.extend(self.pending)
            self.pending.clear()
            self.flushes += 1
            if HOT.enabled:
                HOT.race_flushes.inc()

    def all_records(self) -> List[RaceRecord]:
        """Reported plus still-buffered records."""
        return self.reported + self.pending


class RaceLog:
    """Host-side aggregation: dedup by racy program site.

    The paper counts *static* races ("57 races in 21 GPU programs"): one
    per racy instruction site, however many dynamic occurrences there are.
    The dedup key is the reporting instruction's source location.
    """

    def __init__(self, capacity: int, max_records: Optional[int] = None):
        self.buffer = RaceBuffer(capacity=capacity, max_records=max_records)
        self._seen_sites: Set[str] = set()
        self._site_types: dict = {}

    def report(self, record: RaceRecord) -> bool:
        """Add a dynamic race; returns True if the *site* is new.

        Site dedup is deliberately independent of whether the dynamic
        record fit in the buffer: a record dropped at the ``max_records``
        cap still registers its site and race type, so the paper's static
        race count (and the per-site type) never depends on buffer sizing.
        """
        self.buffer.push(record)
        if record.ip in self._seen_sites:
            return False
        self._seen_sites.add(record.ip)
        self._site_types[record.ip] = record.race_type
        return True

    @property
    def dropped(self) -> int:
        """Dynamic records dropped at the buffer's ``max_records`` cap."""
        return self.buffer.dropped

    @property
    def num_sites(self) -> int:
        """Number of unique racy sites (the paper's race count)."""
        return len(self._seen_sites)

    def sites(self) -> List[Tuple[str, RaceType]]:
        """Sorted (ip, type) pairs of unique racy sites."""
        return sorted(self._site_types.items())

    def types(self) -> Set[RaceType]:
        """The set of race types observed."""
        return set(self._site_types.values())

    def records(self) -> List[RaceRecord]:
        """Every dynamic race record seen so far."""
        return self.buffer.all_records()

    def flush(self) -> None:
        """Force the device buffer to the host (kernel end / timeout)."""
        self.buffer.flush()

