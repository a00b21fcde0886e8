"""Unit tests for every Table 2 condition (P1-P6, R1-R5).

Each test builds the metadata entry, synchronization state, and current
access by hand, then asserts exactly which preliminary check passes or
which race condition fires — the closest thing to testing the paper's
table line by line.
"""

from typing import FrozenSet, NamedTuple

from repro.core.checks import md_word, preliminary_checks, race_checks
from repro.core.metadata import (
    ATOMIC,
    BLK_SHARED,
    DECODE_MD,
    DEV_SHARED,
    MODIFIED,
    SCOPE,
    SET_ACCESSOR,
    SET_WRITER,
)
from repro.core.report import RaceType
from repro.core.syncstate import SyncMetadata
from repro.gpu.events import AccessKind
from repro.gpu.instructions import Scope, scope_covers

WPB = 2  # warps per block used throughout

#: A never-touched granule: both words zero, so Valid is clear.
EMPTY = (0, 0)


def make_entry(
    warp_id=0,
    lane=0,
    dev_fence=0,
    blk_fence=0,
    blk_bar=0,
    warp_bar=0,
    modified=True,
    atomic=False,
    scope_block=False,
    dev_shared=False,
    blk_shared=False,
    locks=0,
):
    """``(accessor word, writer word)`` describing the same access."""
    snapshot = (warp_id, lane, dev_fence, blk_fence, blk_bar, warp_bar)
    acc = SET_ACCESSOR(0, 0, 1, *snapshot)
    wr = SET_WRITER(0, locks, *snapshot)
    for flag, on in (
        (MODIFIED, modified),
        (ATOMIC, atomic),
        (SCOPE, scope_block),
        (DEV_SHARED, dev_shared),
        (BLK_SHARED, blk_shared),
    ):
        if on:
            acc |= flag
    return acc, wr


class Access(NamedTuple):
    """The current access: Table 2's ``curr``."""

    kind: AccessKind
    warp_id: int
    lane: int
    block_id: int
    active_mask: FrozenSet[int]
    locks: int


def make_access(kind=AccessKind.LOAD, warp_id=0, lane=0, block_id=0,
                active_mask=(), locks=0):
    return Access(kind, warp_id, lane, block_id, frozenset(active_mask), locks)


def check(curr, entry, sync=None, its=True, lockset=True):
    """Run both tiers; return ('P', name) or ('R', type) or (None, None)."""
    sync = sync or SyncMetadata()
    acc, wr = entry
    is_load = curr.kind is AccessKind.LOAD
    md = md_word(acc, wr, is_load)
    passed = preliminary_checks(
        acc, md, is_load, curr.kind is AccessKind.ATOMIC, curr.warp_id,
        curr.lane, curr.block_id, curr.active_mask, sync, WPB,
        its_support=its,
    )
    if passed is not None:
        return ("P", passed)
    race = race_checks(
        acc, wr, md, curr.warp_id, curr.block_id, curr.locks, sync, WPB,
        its_support=its, lockset=lockset,
    )
    if race is not None:
        return ("R", race)
    return (None, None)


def _accessor_and_writer(accessor_warp, writer_warp, writer_locks=0):
    acc = SET_ACCESSOR(0, 0, 1, accessor_warp, 1, 0, 0, 0, 0)
    wr = SET_WRITER(0, writer_locks, writer_warp, 2, 0, 0, 0, 0)
    return acc, wr


class TestDefinitions:
    def test_load_checks_against_writer(self):
        acc, wr = _accessor_and_writer(accessor_warp=1, writer_warp=2)
        md = md_word(acc, wr, is_load=True)
        assert DECODE_MD(md)[0] == 2

    def test_store_checks_against_accessor(self):
        acc, wr = _accessor_and_writer(accessor_warp=1, writer_warp=2)
        md = md_word(acc, wr, is_load=False)
        assert DECODE_MD(md)[0] == 1

    def test_atomic_checks_against_accessor(self):
        acc = SET_ACCESSOR(0, 0, 1, 7, 0, 0, 0, 0, 0)
        md = md_word(acc, 0, is_load=False)
        assert DECODE_MD(md)[0] == 7

    def test_md_locks_are_the_last_writers(self):
        # md.Locks is the last writer's summary whichever word md is.
        acc, wr = _accessor_and_writer(1, 2, writer_locks=0xBEEF)
        for is_load in (True, False):
            assert DECODE_MD(md_word(acc, wr, is_load))[6] == 0xBEEF


class TestPreliminary:
    def test_p1_first_access(self):
        assert check(make_access(), EMPTY) == ("P", "P1")

    def test_p2_read_of_unmodified(self):
        e = make_entry(warp_id=1, modified=False)
        assert check(make_access(kind=AccessKind.LOAD, warp_id=0), e) == ("P", "P2")

    def test_p2_not_for_store(self):
        e = make_entry(warp_id=1, lane=0, modified=False)
        result = check(make_access(kind=AccessKind.STORE, warp_id=0, lane=1), e)
        assert result != ("P", "P2")

    def test_p3_same_thread(self):
        e = make_entry(warp_id=3, lane=2)
        curr = make_access(kind=AccessKind.STORE, warp_id=3, lane=2, block_id=1)
        assert check(curr, e) == ("P", "P3")

    def test_p3_same_thread_even_if_shared(self):
        # The deviation documented in checks.py: a thread's own program
        # order covers RMWs on shared locations.
        e = make_entry(warp_id=3, lane=2, blk_shared=True)
        curr = make_access(kind=AccessKind.STORE, warp_id=3, lane=2, block_id=1)
        assert check(curr, e) == ("P", "P3")

    def test_p3_requires_same_warp(self):
        # Lane alone must not be mistaken for thread identity.
        e = make_entry(warp_id=3, lane=2)
        curr = make_access(kind=AccessKind.STORE, warp_id=5, lane=2, block_id=2)
        assert check(curr, e) != ("P", "P3")

    def test_p4_syncwarp_separates(self):
        e = make_entry(warp_id=1, lane=0, warp_bar=0)
        sync = SyncMetadata()
        sync.on_syncwarp(1)  # live counter moved past the snapshot
        curr = make_access(kind=AccessKind.STORE, warp_id=1, lane=3, block_id=0)
        assert check(curr, e, sync) == ("P", "P4")

    def test_p4_converged_active_mask(self):
        e = make_entry(warp_id=1, lane=0)
        curr = make_access(kind=AccessKind.STORE, warp_id=1, lane=3,
                           block_id=0, active_mask={0, 3})
        assert check(curr, e) == ("P", "P4")

    def test_p4_fails_when_diverged_and_unsynced(self):
        e = make_entry(warp_id=1, lane=0)
        curr = make_access(kind=AccessKind.STORE, warp_id=1, lane=3,
                           block_id=0, active_mask={3})
        kind, what = check(curr, e)
        assert (kind, what) == ("R", RaceType.ITS)

    def test_p4_applies_even_when_shared(self):
        # Deviation documented in checks.py: a warp-synchronized handoff
        # stays race-free even on a granule other warps once touched.
        e = make_entry(warp_id=1, lane=0, blk_shared=True)
        sync = SyncMetadata()
        sync.on_syncwarp(1)
        curr = make_access(kind=AccessKind.STORE, warp_id=1, lane=3, block_id=0)
        assert check(curr, e, sync) == ("P", "P4")

    def test_p4_scord_mode_assumes_lockstep(self):
        # Without ITS support, same-warp accesses are race-free a priori.
        e = make_entry(warp_id=1, lane=0)
        curr = make_access(kind=AccessKind.STORE, warp_id=1, lane=3,
                           block_id=0, active_mask={3})
        assert check(curr, e, its=False) == ("P", "P4")

    def test_p5_block_barrier_separates(self):
        e = make_entry(warp_id=0, lane=0, blk_bar=0, blk_shared=True)
        sync = SyncMetadata()
        sync.on_syncthreads(0)
        curr = make_access(kind=AccessKind.STORE, warp_id=1, lane=0, block_id=0)
        assert check(curr, e, sync) == ("P", "P5")

    def test_p5_requires_same_block(self):
        e = make_entry(warp_id=0, lane=0, blk_bar=0)
        sync = SyncMetadata()
        sync.on_syncthreads(0)
        sync.on_syncthreads(1)
        curr = make_access(kind=AccessKind.STORE, warp_id=2, lane=0, block_id=1)
        assert check(curr, e, sync) != ("P", "P5")

    def test_p5_fails_without_intervening_barrier(self):
        e = make_entry(warp_id=0, lane=0, blk_bar=0, blk_shared=True)
        curr = make_access(kind=AccessKind.STORE, warp_id=1, lane=0, block_id=0)
        assert check(curr, e)[0] == "R"

    def test_p6_device_atomics_safe(self):
        e = make_entry(warp_id=9, lane=0, atomic=True, scope_block=False,
                       dev_shared=True)
        curr = make_access(kind=AccessKind.ATOMIC, warp_id=0, lane=0, block_id=0)
        assert check(curr, e) == ("P", "P6")

    def test_p6_block_atomics_safe_within_block(self):
        e = make_entry(warp_id=1, lane=0, atomic=True, scope_block=True)
        curr = make_access(kind=AccessKind.ATOMIC, warp_id=0, lane=0, block_id=0)
        assert check(curr, e) == ("P", "P6")

    def test_p6_block_atomics_unsafe_across_blocks(self):
        e = make_entry(warp_id=0, lane=0, atomic=True, scope_block=True)
        curr = make_access(kind=AccessKind.ATOMIC, warp_id=2, lane=0, block_id=1)
        assert check(curr, e) == ("R", RaceType.ATOMIC_SCOPE)


class TestRaceConditions:
    def test_r1_scoped_atomic_load(self):
        e = make_entry(warp_id=0, lane=0, atomic=True, scope_block=True)
        curr = make_access(kind=AccessKind.LOAD, warp_id=2, lane=0, block_id=1)
        assert check(curr, e) == ("R", RaceType.ATOMIC_SCOPE)

    def test_r2_intra_warp(self):
        e = make_entry(warp_id=1, lane=0)
        curr = make_access(kind=AccessKind.LOAD, warp_id=1, lane=2,
                           block_id=0, active_mask={2})
        assert check(curr, e) == ("R", RaceType.ITS)

    def test_r2_defeated_by_fence(self):
        # The previous thread fenced since its access: not an ITS race,
        # and the intra-block condition also fails, so no race at all...
        e = make_entry(warp_id=1, lane=0, dev_fence=0)
        sync = SyncMetadata()
        sync.on_fence((1, 0), Scope.DEVICE)
        curr = make_access(kind=AccessKind.LOAD, warp_id=1, lane=2,
                           block_id=0, active_mask={2})
        assert check(curr, e, sync) == (None, None)

    def test_r2_blocked_by_sharing(self):
        # A block-shared granule reports BR instead of ITS.
        e = make_entry(warp_id=1, lane=0, blk_shared=True)
        curr = make_access(kind=AccessKind.LOAD, warp_id=1, lane=2,
                           block_id=0, active_mask={2})
        assert check(curr, e) == ("R", RaceType.INTRA_BLOCK)

    def test_r3_intra_block(self):
        e = make_entry(warp_id=0, lane=0, blk_shared=True)
        curr = make_access(kind=AccessKind.LOAD, warp_id=1, lane=0, block_id=0)
        assert check(curr, e) == ("R", RaceType.INTRA_BLOCK)

    def test_r3_defeated_by_block_fence(self):
        e = make_entry(warp_id=0, lane=0, blk_shared=True)
        sync = SyncMetadata()
        sync.on_fence((0, 0), Scope.BLOCK)
        curr = make_access(kind=AccessKind.LOAD, warp_id=1, lane=0, block_id=0)
        assert check(curr, e, sync) == (None, None)

    def test_r4_inter_block(self):
        e = make_entry(warp_id=0, lane=0, dev_shared=True)
        curr = make_access(kind=AccessKind.LOAD, warp_id=2, lane=0, block_id=1)
        assert check(curr, e) == ("R", RaceType.INTER_BLOCK)

    def test_r4_defeated_by_device_fence(self):
        e = make_entry(warp_id=0, lane=0, dev_shared=True)
        sync = SyncMetadata()
        sync.on_fence((0, 0), Scope.DEVICE)
        curr = make_access(kind=AccessKind.LOAD, warp_id=2, lane=0, block_id=1)
        assert check(curr, e, sync) == (None, None)

    def test_r4_not_defeated_by_block_fence(self):
        # A block-scope fence cannot order accesses across blocks.
        e = make_entry(warp_id=0, lane=0, dev_shared=True)
        sync = SyncMetadata()
        sync.on_fence((0, 0), Scope.BLOCK)
        curr = make_access(kind=AccessKind.LOAD, warp_id=2, lane=0, block_id=1)
        assert check(curr, e, sync) == ("R", RaceType.INTER_BLOCK)

    def test_r5_disjoint_locks(self):
        e = make_entry(warp_id=0, lane=0, dev_shared=True, locks=0b0011,
                       dev_fence=0)
        sync = SyncMetadata()
        sync.on_fence((0, 0), Scope.DEVICE)  # writer fenced: R2-R4 fail
        curr = make_access(kind=AccessKind.LOAD, warp_id=2, lane=0,
                           block_id=1, locks=0b1100)
        assert check(curr, e, sync) == ("R", RaceType.IMPROPER_LOCKING)

    def test_r5_one_side_unlocked(self):
        e = make_entry(warp_id=0, lane=0, dev_shared=True, locks=0b0011)
        sync = SyncMetadata()
        sync.on_fence((0, 0), Scope.DEVICE)
        curr = make_access(kind=AccessKind.LOAD, warp_id=2, lane=0,
                           block_id=1, locks=0)
        assert check(curr, e, sync) == ("R", RaceType.IMPROPER_LOCKING)

    def test_r5_shared_lock_no_race(self):
        e = make_entry(warp_id=0, lane=0, dev_shared=True, locks=0b0011)
        sync = SyncMetadata()
        sync.on_fence((0, 0), Scope.DEVICE)
        curr = make_access(kind=AccessKind.LOAD, warp_id=2, lane=0,
                           block_id=1, locks=0b0011)
        assert check(curr, e, sync) == (None, None)

    def test_r5_no_locks_anywhere_no_race(self):
        e = make_entry(warp_id=0, lane=0, dev_shared=True, locks=0)
        sync = SyncMetadata()
        sync.on_fence((0, 0), Scope.DEVICE)
        curr = make_access(kind=AccessKind.LOAD, warp_id=2, lane=0,
                           block_id=1, locks=0)
        assert check(curr, e, sync) == (None, None)

    def test_r5_disabled_without_lockset(self):
        e = make_entry(warp_id=0, lane=0, dev_shared=True, locks=0b0011)
        sync = SyncMetadata()
        sync.on_fence((0, 0), Scope.DEVICE)
        curr = make_access(kind=AccessKind.LOAD, warp_id=2, lane=0,
                           block_id=1, locks=0b1100)
        assert check(curr, e, sync, lockset=False) == (None, None)


class TestOrdering:
    def test_r1_beats_r4(self):
        # A cross-block access to a block-scoped atomic granule must be
        # classified AS (R1), not DR (R4): the table checks in order.
        e = make_entry(warp_id=0, lane=0, atomic=True, scope_block=True,
                       dev_shared=True)
        curr = make_access(kind=AccessKind.LOAD, warp_id=2, lane=0, block_id=1)
        assert check(curr, e) == ("R", RaceType.ATOMIC_SCOPE)

    def test_r2_beats_r3(self):
        e = make_entry(warp_id=1, lane=0)
        curr = make_access(kind=AccessKind.LOAD, warp_id=1, lane=2,
                           block_id=0, active_mask={2})
        assert check(curr, e) == ("R", RaceType.ITS)

    def test_scord_mode_skips_r2(self):
        e = make_entry(warp_id=1, lane=0)
        curr = make_access(kind=AccessKind.LOAD, warp_id=1, lane=2,
                           block_id=0, active_mask={2})
        # With its_support=False the same-warp access passes P4 instead
        # of being reported as an ITS race.
        assert check(curr, e, its=False) == ("P", "P4")

    def test_scord_mode_lockstep_covers_shared_granules_too(self):
        # ScoRD's lockstep assumption orders same-warp accesses whether or
        # not the granule was ever shared across warps.
        e = make_entry(warp_id=1, lane=0, blk_shared=True)
        curr = make_access(kind=AccessKind.LOAD, warp_id=1, lane=2,
                           block_id=0, active_mask={2})
        assert check(curr, e, its=False) == ("P", "P4")


class TestScopeLattice:
    def test_scope_covers_lattice(self):
        assert scope_covers(Scope.DEVICE, Scope.BLOCK)
        assert scope_covers(Scope.SYSTEM, Scope.DEVICE)
        # SYSTEM and DEVICE collapse on a single-GPU machine.
        assert scope_covers(Scope.DEVICE, Scope.SYSTEM)
        assert not scope_covers(Scope.BLOCK, Scope.DEVICE)
        assert scope_covers(Scope.BLOCK, Scope.BLOCK)
        # Scope.covers delegates to the shared helper.
        assert Scope.DEVICE.covers(Scope.BLOCK)
        assert not Scope.BLOCK.covers(Scope.DEVICE)
