"""Lock tables and lock-protocol inference (section 6.3, Figure 7).

CUDA has no lock instructions, but the CUDA guidebook pattern is::

    while (atomicCAS(&lock, 0, 1) != 0);   // acquire: CAS ...
    __threadfence();                       //          ... then fence
    /* critical section */
    __threadfence();                       // release: fence ...
    atomicExch(&lock, 0);                  //          ... then exchange

iGUARD infers these instruction pairs as lock/unlock.  Each lock-table
entry is 21 bits of a 64-bit structure: Valid, Active, Scope, and an
18-bit hash of the lock variable's address; a table holds up to 3 entries.
An ``atomicCAS`` inserts an entry (Valid, not yet Active); a following
threadfence of matching-or-narrower scope *activates* entries — an active
entry is a lock currently held.  An ``atomicExch`` invalidates the
matching entry (even without the release fence: the fence's absence is
caught by the fence-counter race checks instead).

Protocol inference: a warp-level table is used by default; if more than
one thread of a warp executes ``atomicCAS`` simultaneously (visible in the
active mask), per-thread locking is inferred, the warp table's sticky
``isThread`` bit is set, and per-thread tables take over.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.common.bloom import BloomFilter16
from repro.common.hashing import address_hash18
from repro.gpu.instructions import Scope


@dataclass
class LockEntry:
    """One Figure 7 entry: Valid | Active | Scope | 18-bit address hash."""

    valid: bool = False
    active: bool = False
    scope: Scope = Scope.DEVICE
    addr_hash: int = 0

    def matches(self, addr_hash: int, scope: Optional[Scope] = None) -> bool:
        """Whether this entry refers to the given lock (and scope, if set)."""
        if not self.valid or self.addr_hash != addr_hash:
            return False
        return scope is None or self.scope.effective is scope.effective


class LockTable:
    """A bounded table of inferred locks for one warp or one thread."""

    def __init__(self, max_entries: int = 3):
        self.max_entries = max_entries
        self.entries: List[LockEntry] = [LockEntry() for _ in range(max_entries)]
        #: Sticky bit: per-thread locking inferred for the owning warp.
        #: Meaningful on per-warp tables only; never unset (section 6.3).
        self.is_thread = False
        #: How many inserts were dropped because the table was full; the
        #: paper sizes the table at 3 and found it sufficient in practice.
        self.overflows = 0
        #: Packed Bloom summary of held locks, or None after a mutation
        #: until :meth:`locks_bloom_int` rebuilds it.  The check core reads
        #: the summary once per checked access, while the table changes
        #: only on acquire/fence/release — the cache turns the common read
        #: into one attribute load.
        self.cached_bloom: Optional[int] = None

    # ------------------------------------------------------------------

    def insert(self, lock_address: int, scope: Scope) -> bool:
        """Record an ``atomicCAS`` on a lock variable (acquire attempt).

        Returns True if an entry exists after the call (inserted or
        refreshed); False if the table was full.
        """
        addr_hash = address_hash18(lock_address)
        for entry in self.entries:
            if entry.matches(addr_hash, scope):
                return True  # re-acquire attempt of a known lock
        for entry in self.entries:
            if not entry.valid:
                entry.valid = True
                entry.active = False
                entry.scope = scope.effective
                entry.addr_hash = addr_hash
                self.cached_bloom = None
                return True
        self.overflows += 1
        return False

    def activate(self, fence_scope: Scope) -> int:
        """A threadfence completes pending acquires.

        Sets the Active bit "for all entries with matching or narrower
        scope": a device fence activates device- and block-scope locks, a
        block fence only block-scope locks.  Returns how many entries were
        newly activated.
        """
        activated = 0
        for entry in self.entries:
            if entry.valid and not entry.active:
                if fence_scope.effective.covers(entry.scope):
                    entry.active = True
                    activated += 1
        if activated:
            self.cached_bloom = None
        return activated

    def release(self, lock_address: int, scope: Scope) -> bool:
        """An ``atomicExch`` releases the matching lock (unsets Valid)."""
        addr_hash = address_hash18(lock_address)
        for entry in self.entries:
            if entry.matches(addr_hash, scope):
                entry.valid = False
                entry.active = False
                self.cached_bloom = None
                return True
        return False

    # ------------------------------------------------------------------

    def held_hashes(self) -> List[int]:
        """18-bit hashes of locks currently held (valid and active)."""
        return [e.addr_hash for e in self.entries if e.valid and e.active]

    def locks_bloom(self) -> BloomFilter16:
        """The 16-bit 2-way Bloom summary of held locks (metadata field)."""
        return BloomFilter16.of(self.held_hashes())

    def locks_bloom_int(self) -> int:
        """``int(locks_bloom())`` served from the post-mutation cache."""
        value = self.cached_bloom
        if value is None:
            value = self.cached_bloom = int(BloomFilter16.of(self.held_hashes()))
        return value

    def holds_any(self) -> bool:
        """Whether any lock is currently held."""
        return any(e.valid and e.active for e in self.entries)
