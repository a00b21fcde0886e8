"""Tests for the Figure 4 memory-metadata layout."""

from hypothesis import given, strategies as st

from repro.core.metadata import (
    ACCESSOR_WORD,
    ATOMIC,
    BLK_BAR_BITS,
    BLK_FENCE_BITS,
    BLK_SHARED,
    DECODE_MD,
    DEV_FENCE_BITS,
    DEV_SHARED,
    GET_LOCKS,
    GET_WARP_ID,
    LOCKS_MASK,
    MODIFIED,
    SCOPE,
    SET_ACCESSOR,
    SET_WRITER,
    SNAPSHOT_FIELDS,
    SNAPSHOT_MASK,
    TAG_BITS,
    VALID,
    WARP_BAR_BITS,
    WRITER_WORD,
    MetadataEntry,
    MetadataTable,
)
from repro.gpu.ids import block_of_warp


class TestLayout:
    """The bit positions printed in Figure 4."""

    def test_accessor_field_positions(self):
        f = ACCESSOR_WORD.field
        assert (f("Tag").hi, f("Tag").lo) == (63, 54)
        assert (f("WarpID").hi, f("WarpID").lo) == (45, 31)
        assert (f("ThreadID").hi, f("ThreadID").lo) == (30, 26)
        assert (f("DevFenceID").hi, f("DevFenceID").lo) == (25, 20)
        assert (f("BlkFenceID").hi, f("BlkFenceID").lo) == (19, 14)
        assert (f("BlkBarID").hi, f("BlkBarID").lo) == (13, 6)
        assert (f("WarpBarID").hi, f("WarpBarID").lo) == (5, 0)

    def test_flag_bits_inside_53_48(self):
        for name in ("Valid", "Modified", "Atomic", "Scope", "DevShared", "BlkShared"):
            field = ACCESSOR_WORD.field(name)
            assert field.width == 1
            assert 48 <= field.lo <= 53

    def test_writer_locks_position(self):
        f = WRITER_WORD.field("Locks")
        assert (f.hi, f.lo) == (63, 48)

    def test_counter_widths(self):
        # 6-bit fences, 8-bit block barrier, 6-bit warp barrier (6.7
        # discusses exactly these widths wrapping).
        assert DEV_FENCE_BITS == 6
        assert BLK_FENCE_BITS == 6
        assert BLK_BAR_BITS == 8
        assert WARP_BAR_BITS == 6
        assert TAG_BITS == 10

    def test_entry_is_16_bytes(self):
        # Two 64-bit words: the paper's 16-byte entry (4x overhead per
        # 4-byte granule).
        table = MetadataTable()
        assert table.entry_bytes == 16


class TestMetadataEntry:
    """The word-level codec the check core reads and writes entries with."""

    def test_fresh_entry_invalid(self):
        assert not MetadataEntry().accessor_word & VALID

    def test_set_accessor_validates(self):
        acc = SET_ACCESSOR(0, 5, 1, 3, 2, 1, 0, 7, 4)
        assert acc & VALID
        assert DECODE_MD(acc)[:6] == (3, 2, 1, 0, 7, 4)
        assert GET_WARP_ID(acc) == 3
        assert ACCESSOR_WORD.get(acc, "Tag") == 5

    def test_set_writer(self):
        wr = SET_WRITER(0, 0xABCD, 9, 1, 2, 3, 4, 5)
        assert DECODE_MD(wr) == (9, 1, 2, 3, 4, 5, 0xABCD)
        assert GET_LOCKS(wr) == 0xABCD

    def test_flags(self):
        # The flag masks sit exactly on the named Figure 4 bits.
        names = {
            "Valid": VALID, "Modified": MODIFIED, "Atomic": ATOMIC,
            "Scope": SCOPE, "DevShared": DEV_SHARED, "BlkShared": BLK_SHARED,
        }
        for name, mask in names.items():
            assert ACCESSOR_WORD.get(mask, name) == 1
            assert ACCESSOR_WORD.set(0, name, 1) == mask
        acc = MODIFIED | ATOMIC | SCOPE | DEV_SHARED | BLK_SHARED
        acc &= ~ATOMIC
        assert ACCESSOR_WORD.get(acc, "Atomic") == 0
        assert ACCESSOR_WORD.get(acc, "Modified") == 1

    def test_accessor_update_preserves_flags(self):
        acc = SET_ACCESSOR(MODIFIED | DEV_SHARED, 1, 1, 1, 1, 0, 0, 0, 0)
        assert acc & MODIFIED and acc & DEV_SHARED

    def test_counter_wraparound(self):
        # Storing counter value 256 into the 8-bit BlkBarID aliases 0 —
        # the 6.7 false-positive/negative window.
        acc = SET_ACCESSOR(0, 0, 1, 0, 0, 0, 0, 256, 64)
        _, _, _, _, blk_bar, warp_bar, _ = DECODE_MD(acc)
        assert (blk_bar, warp_bar) == (0, 0)

    def test_block_derivation(self):
        acc = SET_ACCESSOR(0, 0, 1, 5, 0, 0, 0, 0, 0)
        assert block_of_warp(GET_WARP_ID(acc), warps_per_block=2) == 2

    def test_snapshot_fields_shared_by_both_words(self):
        # One decoder serves either word because the layouts agree on
        # bits 45-0; md_word relies on it.
        for name in SNAPSHOT_FIELDS:
            assert ACCESSOR_WORD.field(name) == WRITER_WORD.field(name)
        assert SNAPSHOT_MASK == (1 << 46) - 1
        assert LOCKS_MASK == WRITER_WORD.field("Locks").mask

    @given(
        warp=st.integers(0, (1 << 15) - 1),
        lane=st.integers(0, 31),
        dev=st.integers(0, 63),
        blk=st.integers(0, 63),
        bar=st.integers(0, 255),
        wbar=st.integers(0, 63),
    )
    def test_accessor_roundtrip_property(self, warp, lane, dev, blk, bar, wbar):
        acc = SET_ACCESSOR(0, 0, 1, warp, lane, dev, blk, bar, wbar)
        assert DECODE_MD(acc)[:6] == (warp, lane, dev, blk, bar, wbar)
        # The compiled path agrees with the field-by-field reference.
        fields = ACCESSOR_WORD.unpack(acc)
        assert (
            fields["WarpID"], fields["ThreadID"], fields["DevFenceID"],
            fields["BlkFenceID"], fields["BlkBarID"], fields["WarpBarID"],
        ) == (warp, lane, dev, blk, bar, wbar)
        assert fields["Valid"] == 1


class TestMetadataTable:
    def test_granularity(self):
        t = MetadataTable(granularity_bytes=4)
        assert t.granule_of(0x1000) == t.granule_of(0x1003)
        assert t.granule_of(0x1000) != t.granule_of(0x1004)

    def test_lookup_creates(self):
        t = MetadataTable()
        e = t.lookup(0x1000)
        assert not e.accessor_word & VALID
        assert len(t) == 1

    def test_lookup_returns_same_entry(self):
        t = MetadataTable()
        assert t.lookup(0x1000) is t.lookup(0x1002)

    def test_peek_does_not_create(self):
        t = MetadataTable()
        assert t.peek(0x1000) is None
        assert len(t) == 0

    def test_clear(self):
        t = MetadataTable()
        t.lookup(0x1000)
        t.clear()
        assert len(t) == 0

    def test_shadow_bytes(self):
        t = MetadataTable()
        t.lookup(0x1000)
        t.lookup(0x2000)
        assert t.shadow_bytes == 32  # 2 entries x 16 bytes

    def test_eviction_reports_the_victim(self):
        t = MetadataTable(max_entries=2)
        evicted = []
        t.on_evict = evicted.append
        for granule in (7, 8, 9, 7):
            t.lookup_granule(granule)
        assert evicted == [7, 8]  # FIFO: oldest resident first
        assert t.evictions == 2 and len(t) == 2

    def test_tag_of_is_narrow(self):
        t = MetadataTable()
        assert 0 <= t.tag_of(0xFFFFFFFF) < (1 << TAG_BITS)
