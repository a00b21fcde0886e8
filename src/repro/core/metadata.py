"""Memory metadata: the 16-byte per-granule entry of Figure 4.

Each 4-byte granule of global memory is shadowed by two packed 64-bit
words:

``accessor`` word (the *last accessor* — reader or writer)::

    [63-54] [53-48] [47-46] [45-31] [30-26]    [25-20]    [19-14]    [13-6]   [5-0]
    Tag     Flags   Unused  WarpID  ThreadID   DevFenceID BlkFenceID BlkBarID WarpBarID

    Flags = Valid | Modified | Atomic | Scope | DevShared | BlkShared

``writer`` word (the *last writer*)::

    [63-48] [47-46] [45-31] [30-26]    [25-20]    [19-14]    [13-6]   [5-0]
    Locks   Unused  WarpID  ThreadID   DevFenceID BlkFenceID BlkBarID WarpBarID

Field meanings (section 6.2): ``WarpID`` is the global warp index and
``ThreadID`` the 5-bit lane; the block ID is *derived* by dividing WarpID
by the kernel's warps-per-block.  The fence/barrier IDs snapshot the
accessor's synchronization counters at access time.  ``Locks`` is the
16-bit 2-way Bloom filter of locks held by the writer.  Counters are
narrow on purpose — they wrap exactly as the paper's do (section 6.7).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.common.bitfield import BitField, BitStruct
from repro.obs.metrics import HOT

#: The last-accessor word (Figure 4, top row).
ACCESSOR_WORD = BitStruct(
    "accessor",
    [
        BitField("Tag", 63, 54),
        BitField("BlkShared", 53, 53),
        BitField("DevShared", 52, 52),
        BitField("Scope", 51, 51),
        BitField("Atomic", 50, 50),
        BitField("Modified", 49, 49),
        BitField("Valid", 48, 48),
        BitField("Unused", 47, 46),
        BitField("WarpID", 45, 31),
        BitField("ThreadID", 30, 26),
        BitField("DevFenceID", 25, 20),
        BitField("BlkFenceID", 19, 14),
        BitField("BlkBarID", 13, 6),
        BitField("WarpBarID", 5, 0),
    ],
)

#: The last-writer word (Figure 4, bottom row).
WRITER_WORD = BitStruct(
    "writer",
    [
        BitField("Locks", 63, 48),
        BitField("Unused", 47, 46),
        BitField("WarpID", 45, 31),
        BitField("ThreadID", 30, 26),
        BitField("DevFenceID", 25, 20),
        BitField("BlkFenceID", 19, 14),
        BitField("BlkBarID", 13, 6),
        BitField("WarpBarID", 5, 0),
    ],
)

#: Bit widths of the synchronization counters, shared with syncstate so the
#: live counters wrap at exactly the same width as the stored snapshots.
DEV_FENCE_BITS = ACCESSOR_WORD.field("DevFenceID").width  # 6
BLK_FENCE_BITS = ACCESSOR_WORD.field("BlkFenceID").width  # 6
BLK_BAR_BITS = ACCESSOR_WORD.field("BlkBarID").width  # 8
WARP_BAR_BITS = ACCESSOR_WORD.field("WarpBarID").width  # 6
TAG_BITS = ACCESSOR_WORD.field("Tag").width  # 10

# ---------------------------------------------------------------------------
# Word-level codec for the check core.  Every mask/shift is baked into a
# compiled closure or a module constant, so one access decodes, checks and
# writes back on plain ints.  The reference field-by-field path
# (BitStruct.get/set) stays the ground truth; the property tests assert
# both paths agree bit for bit.
# ---------------------------------------------------------------------------

#: Single-bit flag masks of the accessor word.
VALID = ACCESSOR_WORD.field("Valid").mask
MODIFIED = ACCESSOR_WORD.field("Modified").mask
ATOMIC = ACCESSOR_WORD.field("Atomic").mask
SCOPE = ACCESSOR_WORD.field("Scope").mask  # 1: last atomic was block-scoped
DEV_SHARED = ACCESSOR_WORD.field("DevShared").mask
BLK_SHARED = ACCESSOR_WORD.field("BlkShared").mask

#: The accessor's identity + sync snapshot.  Both words keep these fields
#: at the same bits (45-0), which is what lets one decoder serve either.
SNAPSHOT_FIELDS = (
    "WarpID", "ThreadID", "DevFenceID", "BlkFenceID", "BlkBarID", "WarpBarID"
)
SNAPSHOT_MASK = sum(ACCESSOR_WORD.field(name).mask for name in SNAPSHOT_FIELDS)
LOCKS_MASK = WRITER_WORD.field("Locks").mask

#: ``(warp, lane, dev_fence, blk_fence, blk_bar, warp_bar, locks)`` of a
#: word in the writer layout (the first six hold for either word).
DECODE_MD = WRITER_WORD.compile_decoder(*SNAPSHOT_FIELDS, "Locks")
#: WarpID of either word.
GET_WARP_ID = WRITER_WORD.compile_getter("WarpID")
GET_LOCKS = WRITER_WORD.compile_getter("Locks")

#: ``SET_ACCESSOR(word, tag, valid, *snapshot)``: record an access in the
#: accessor word, flags other than Valid kept.
SET_ACCESSOR = ACCESSOR_WORD.compile_setter("Tag", "Valid", *SNAPSHOT_FIELDS)
#: ``SET_WRITER(word, locks, *snapshot)``: record a write in the writer word.
SET_WRITER = WRITER_WORD.compile_setter("Locks", *SNAPSHOT_FIELDS)


class MetadataEntry:
    """One 16-byte metadata entry, stored as two packed 64-bit words."""

    __slots__ = ("accessor_word", "writer_word")

    def __init__(self, accessor_word: int = 0, writer_word: int = 0):
        self.accessor_word = accessor_word
        self.writer_word = writer_word


class MetadataTable:
    """The full shadow table: one entry per accessed granule.

    Entries are created lazily (the Valid bit plays the role of
    initialization, matching the paper's UVM-backed on-demand metadata).
    """

    def __init__(
        self,
        granularity_bytes: int = 4,
        entry_bytes: int = 16,
        max_entries: Optional[int] = None,
    ):
        self.granularity_bytes = granularity_bytes
        self.entry_bytes = entry_bytes
        #: Pressure cap (``IGuardConfig.metadata_max_entries``): admitting
        #: a granule past the cap evicts the oldest entry.  Eviction
        #: forgets history, so it can hide a race (bounded recall loss,
        #: like the paper's finite lock tables) but never invent one —
        #: the evicted granule simply looks like a first access again.
        self.max_entries = max_entries
        self.evictions = 0
        #: Called with each evicted granule, so owners of per-granule side
        #: state forget it together with the entry.
        self.on_evict: Optional[Callable[[int], None]] = None
        #: granule -> entry, in admission order.  The check core reads it
        #: directly and calls :meth:`lookup_granule` only to admit a granule.
        self.entries: Dict[int, MetadataEntry] = {}
        #: Power-of-two granularities (all the config allows) divide by a
        #: shift on the hot path; anything else falls back to division.
        self._granule_shift: Optional[int] = (
            granularity_bytes.bit_length() - 1
            if granularity_bytes & (granularity_bytes - 1) == 0
            else None
        )

    def granule_of(self, address: int) -> int:
        """Index of the granule shadowing ``address``."""
        if self._granule_shift is not None:
            return address >> self._granule_shift
        return address // self.granularity_bytes

    def tag_of(self, address: int) -> int:
        """The address tag stored to disambiguate granules (Figure 4)."""
        return self.granule_of(address) & ((1 << TAG_BITS) - 1)

    def lookup(self, address: int) -> MetadataEntry:
        """Fetch (creating if absent) the entry shadowing ``address``."""
        return self.lookup_granule(self.granule_of(address))

    def lookup_granule(self, granule: int) -> MetadataEntry:
        """``lookup`` for callers that already hold the granule index."""
        entry = self.entries.get(granule)
        if entry is None:
            if (
                self.max_entries is not None
                and len(self.entries) >= self.max_entries
            ):
                # FIFO eviction: dicts preserve insertion order, so the
                # first key is the longest-resident granule.
                victim = next(iter(self.entries))
                del self.entries[victim]
                self.evictions += 1
                if HOT.enabled:
                    HOT.metadata_evictions.inc()
                if self.on_evict is not None:
                    self.on_evict(victim)
            entry = MetadataEntry()
            self.entries[granule] = entry
        return entry

    def peek(self, address: int) -> Optional[MetadataEntry]:
        """Fetch the entry without creating it."""
        return self.entries.get(self.granule_of(address))

    def clear(self) -> None:
        """Drop all entries (kernel boundary: implicit global barrier)."""
        self.entries.clear()

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def shadow_bytes(self) -> int:
        """Bytes of metadata materialized so far."""
        return len(self.entries) * self.entry_bytes
