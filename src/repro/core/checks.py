"""The two-tier race detection logic of Table 2, on packed metadata words.

Most accesses do not participate in a race, so iGUARD (like ScoRD) first
runs cheap *preliminary checks* (P1-P6) that prove an access trivially
race-free; only if **all** of them fail are the *race conditions* (R1-R5)
evaluated, in order, and the first one that holds classifies the race.

Both tiers work on plain ints, as the hardware does: the two 64-bit words
of the Figure 4 entry are read once, the fields a condition needs are
decoded into locals with the compiled codecs of
:mod:`repro.core.metadata`, and flags are tested with masks.  No access
record or decoded view object is built per check.

Notation, exactly as in the paper's Table 2:

- ``mm``   — the memory metadata entry for the accessed granule: here its
  accessor word ``acc`` (which also carries the flags) and its writer
  word ``wr``;
- ``md``   — ``mm.LastAccessor`` for stores/atomics, ``mm.LastWriter`` for
  loads (a load can only race with the last write; a write races with any
  last access).  It is passed as one word in the *writer* layout: the two
  layouts share bits 45-0 (identity + sync snapshot), and ``md.Locks`` is
  the last writer's lock summary either way, so :func:`md_word` selects
  with two masks;
- ``sm``   — the *live* synchronization metadata: for barrier IDs, the
  current counter of the relevant block/warp; for fence IDs, the current
  counters of ``md``'s thread (equality means that thread has executed no
  fence since its access); for locks, the current accessor's summary;
- ``curr`` — the current access: its kind, warp, lane, block, active mask
  and lock summary, passed as separate arguments.

The checks:

====  =====================================================================
P1    first access to the granule (``!mm.Valid``)
P2    granule never written and the access is a load
P3    program order: same thread (warp + lane) as the previous access
P4    same warp, separated by a ``syncwarp`` **or** still converged (the
      previous accessor's lane is in the current active mask) — the
      ITS-aware condition unique to iGUARD
P5    same block, separated by a ``syncthreads``
P6    atomic-atomic with sufficient scope
R1    insufficiently scoped atomic (AS)
R2    intra-warp, no intervening fence by the previous thread (ITS)
R3    intra-block, no intervening fence (BR)
R4    inter-block, no intervening device-scope fence (DR)
R5    lockset: locks in use but intersection empty (IL)
====  =====================================================================
"""

from __future__ import annotations

from typing import AbstractSet, Optional

from repro.core.metadata import (
    ATOMIC,
    BLK_SHARED,
    DECODE_MD,
    DEV_SHARED,
    GET_WARP_ID,
    LOCKS_MASK,
    MODIFIED,
    SCOPE,
    SNAPSHOT_MASK,
    VALID,
)
from repro.core.report import RaceType
from repro.core.syncstate import SyncMetadata


def md_word(acc: int, wr: int, is_load: bool) -> int:
    """Table 2's *Definitions* block: pick last accessor vs last writer."""
    if is_load:
        return wr
    return (acc & SNAPSHOT_MASK) | (wr & LOCKS_MASK)


def preliminary_checks(
    acc: int,
    md: int,
    is_load: bool,
    is_atomic: bool,
    warp: int,
    lane: int,
    block: int,
    active_mask: AbstractSet[int],
    sync: SyncMetadata,
    warps_per_block: int,
    its_support: bool = True,
) -> Optional[str]:
    """Run P1-P6; return the name of the first condition that proves the
    access race-free, or None if all fail (detailed checks needed)."""

    # P1: the first access to a memory location cannot be a race.
    if not acc & VALID:
        return "P1"

    # P2: an unmodified location read again is race-free.
    if is_load and not acc & MODIFIED:
        return "P2"

    md_warp, md_lane, _, _, md_blk_bar, md_warp_bar, _ = DECODE_MD(md)

    if warp == md_warp:
        # P3: two accesses from the same thread in program order cannot
        # race.  Table 2 prints this as "!DevShared AND !BlkShared AND
        # curr.ThreadID == md.ThreadID": with an unshared granule the
        # 5-bit lane alone identifies the thread.  Taken literally,
        # though, that formulation would flag every same-thread
        # read-modify-write to a location that was *ever* shared (the
        # sharing flags are sticky) — the most common memory idiom there
        # is — and the real tool reports no such false positives.  We
        # therefore check full thread identity (warp AND lane), which
        # subsumes the printed condition and is exactly "same thread in
        # program order".
        if lane == md_lane:
            return "P3"

        # P4: same warp, and either a syncwarp intervened (the warp's
        # live warp-barrier counter moved on) or the threads are still
        # converged (the previous accessor's lane is in the current
        # active mask, so batch-lockstep execution orders the accesses).
        # Unique to iGUARD.  Like P3, Table 2 prints this with a
        # "!DevShared AND !BlkShared" precondition; the full 15-bit
        # WarpID makes it unnecessary, and keeping it would flag
        # warp-synchronized exchanges on any buffer that was *ever*
        # shared across warps (sticky flags).
        if not its_support:
            # ScoRD mode: pre-ITS hardware assumption — threads of a warp
            # execute in lockstep, so same-warp accesses never race.
            return "P4"
        if md_warp_bar != sync.warp_bars.get(warp, 0):
            return "P4"
        if md_lane in active_mask:
            return "P4"

    # P5: same block, separated by an intervening threadblock barrier.
    md_block = md_warp // warps_per_block
    if (
        not acc & DEV_SHARED
        and md_block == block
        and md_blk_bar != sync.blk_bars.get(block, 0)
    ):
        return "P5"

    # P6: atomics of sufficient scope cannot race with each other.
    if is_atomic and acc & ATOMIC:
        if md_block == block or not acc & SCOPE:
            return "P6"

    return None


def race_checks(
    acc: int,
    wr: int,
    md: int,
    warp: int,
    block: int,
    locks: int,
    sync: SyncMetadata,
    warps_per_block: int,
    its_support: bool = True,
    lockset: bool = True,
) -> Optional[RaceType]:
    """Run R1-R5 in order; return the type of the first race found.

    ``locks`` is ``sm.Locks``, the current accessor's lock summary.
    """

    md_warp, md_lane, md_dev_fence, md_blk_fence, _, _, md_locks = DECODE_MD(md)
    md_block = md_warp // warps_per_block
    writer_block = GET_WARP_ID(wr) // warps_per_block

    # sm fence counters: the previous accessor's *current* counters.  If
    # they equal the snapshot in the metadata, that thread has executed no
    # fence since the access.
    md_thread = (md_warp, md_lane)
    no_dev_fence = md_dev_fence == sync.dev_fences.get(md_thread, 0)
    no_blk_fence = md_blk_fence == sync.blk_fences.get(md_thread, 0)

    # R1: scoped-atomic race — the granule is touched by block-scope
    # atomics, but the last writer and the current accessor live in
    # different threadblocks.
    if acc & ATOMIC and acc & SCOPE and writer_block != block:
        return RaceType.ATOMIC_SCOPE

    # R2: intra-warp (ITS) race — same warp, no intervening fences, and
    # the granule was never shared beyond the warp.  (Convergence was
    # already ruled out by P4 failing.)
    if (
        its_support
        and md_warp == warp
        and no_dev_fence
        and no_blk_fence
        and not acc & (DEV_SHARED | BLK_SHARED)
    ):
        return RaceType.ITS

    # R3: intra-block race — same block, no intervening fences, granule
    # never shared across blocks.
    if (
        md_block == block
        and no_dev_fence
        and no_blk_fence
        and not acc & DEV_SHARED
    ):
        return RaceType.INTRA_BLOCK

    # R4: inter-block race — different blocks and no intervening
    # device-scope fence (a block-scope fence cannot order accesses from
    # different threadblocks).
    if md_block != block and no_dev_fence:
        return RaceType.INTER_BLOCK

    # R5: missing/mismatched locks — locks are in use for this granule,
    # but the previous and current lock sets do not intersect.
    if lockset and (md_locks or locks) and not md_locks & locks:
        return RaceType.IMPROPER_LOCKING

    return None
