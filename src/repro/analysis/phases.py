"""Barrier-interval phases and granule-level sharing facts.

The MHP (may-happen-in-parallel) skeleton follows Liew et al.'s
barrier-interval reasoning, adapted to the counters the dynamic detector
actually snapshots (Table 2):

- every access carries the number of ``syncthreads`` its thread completed
  before it (its *block interval*) and the number of ``syncwarp``s (its
  *warp interval*);
- a block barrier only completes when every live thread of the block has
  arrived, so at the moment a thread executes an access in block interval
  *i*, the block's live barrier counter is exactly *i* — the same value
  the detector would snapshot into the metadata entry.  Two same-block
  accesses in different intervals therefore cannot both be "current while
  the other is the stale snapshot": whichever executes second observes a
  counter that moved, which is precisely preliminary check P5 (P4 for
  warps) passing.  No barrier-alignment side condition is needed: the
  interval number *is* the live counter, not a per-thread textual count.

The same-block argument additionally needs the granule's ``DevShared``
flag to be provably clear (P5 requires it), which is a *granule-global*
fact: one access from another block anywhere in the kernel can set it.
:class:`GranuleFacts` aggregates those whole-granule properties.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from repro.analysis.extract import KernelSummary, StaticAccess, ThreadTrace


@dataclass
class SiteRecord:
    """Deduplicated accesses of one thread that are interchangeable.

    Two accesses merge when they agree on everything the pairwise checker
    looks at (site, kind, granule, scope, intervals, fence counts,
    value-changingness).  Spin polls collapse this way, keeping the
    pairwise loop quadratic in *distinct* behaviors rather than in raw
    poll counts.  ``min_index``/``max_index`` preserve the program-order
    extremes so position-sensitive rules (the fence-publication chain)
    can still quantify over every merged occurrence.
    """

    access: StaticAccess  # representative (first occurrence)
    min_index: int
    max_index: int
    count: int = 1


def _dedup_key(a: StaticAccess) -> Tuple:
    return (
        a.ip,
        a.kind,
        a.granule,
        a.scope,
        a.atomic_op,
        a.value_changing,
        a.blk_interval,
        a.warp_interval,
        a.dev_fences,
        a.blk_fences,
        a.spin,
    )


def dedup_thread(trace: ThreadTrace) -> List[SiteRecord]:
    """Collapse one thread's accesses into site records."""
    records: Dict[Tuple, SiteRecord] = {}
    for access in trace.accesses:
        key = _dedup_key(access)
        record = records.get(key)
        if record is None:
            records[key] = SiteRecord(
                access=access, min_index=access.index, max_index=access.index
            )
        else:
            record.min_index = min(record.min_index, access.index)
            record.max_index = max(record.max_index, access.index)
            record.count += 1
    return list(records.values())


@dataclass
class GranuleFacts:
    """Whole-granule properties the pairwise rules consult."""

    granule: int
    records: List[SiteRecord] = field(default_factory=list)
    blocks: Set[int] = field(default_factory=set)
    warps: Set[int] = field(default_factory=set)
    has_write: bool = False
    #: Threads whose writes can change the stored value (spin zero-adds
    #: excluded) — the chain rule's single-writer condition.
    changing_writer_tids: Set[int] = field(default_factory=set)

    @property
    def single_block(self) -> bool:
        """Only one block ever touches the granule: DevShared stays clear."""
        return len(self.blocks) <= 1


def granule_facts(summary: KernelSummary) -> Dict[int, GranuleFacts]:
    """Site records and sharing facts for every granule in the kernel."""
    facts: Dict[int, GranuleFacts] = {}
    for trace in summary.threads:
        for record in dedup_thread(trace):
            access = record.access
            fact = facts.get(access.granule)
            if fact is None:
                fact = facts[access.granule] = GranuleFacts(granule=access.granule)
            fact.records.append(record)
            fact.blocks.add(access.location.block_id)
            fact.warps.add(access.location.warp_id)
            if access.is_write:
                fact.has_write = True
            if access.value_changing:
                fact.changing_writer_tids.add(access.location.global_tid)
    return facts

