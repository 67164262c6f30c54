import pytest

from repro.lfs.inode_map import InodeMap, SegmentUsage


class TestInodeMap:
    def test_starts_empty(self):
        imap = InodeMap(64)
        assert imap.get(1) is None
        assert not imap.allocated(1)

    def test_set_get_roundtrip(self):
        imap = InodeMap(64)
        imap.set(5, address=1234, slot=17)
        assert imap.get(5) == (1234, 17)
        assert imap.allocated(5)

    def test_clear(self):
        imap = InodeMap(64)
        imap.set(5, 10, 0)
        imap.clear(5)
        assert imap.get(5) is None

    def test_lowest_unused_lowest_first(self):
        imap = InodeMap(64)
        assert imap.lowest_unused(()) == 1
        imap.set(1, 10, 0)
        imap.set(2, 10, 1)
        assert imap.lowest_unused(()) == 3

    def test_alloc_exhaustion(self):
        imap = InodeMap(4)
        for inum in (1, 2, 3):
            imap.set(inum, 10, inum)
        assert imap.lowest_unused(()) is None

    def test_live_inums(self):
        imap = InodeMap(16)
        imap.set(3, 5, 0)
        imap.set(9, 5, 1)
        assert list(imap.live_inums()) == [3, 9]

    def test_slot_bounds(self):
        imap = InodeMap(16)
        with pytest.raises(ValueError):
            imap.set(1, 10, 32)
        with pytest.raises(ValueError):
            imap.set(1, 0, 0)

    def test_inum_bounds(self):
        imap = InodeMap(16)
        with pytest.raises(ValueError):
            imap.get(0)
        with pytest.raises(ValueError):
            imap.get(16)

    def test_pack_load_roundtrip(self):
        imap = InodeMap(32)
        imap.set(1, 100, 3)
        imap.set(30, 2000, 29)
        fresh = InodeMap(32)
        fresh.load(imap.pack())
        assert fresh.get(1) == (100, 3)
        assert fresh.get(30) == (2000, 29)
        assert fresh.get(2) is None


class TestSegmentUsage:
    def test_starts_clean(self):
        usage = SegmentUsage(8, 512 << 10)
        assert usage.clean_segments() == list(range(8))
        assert usage.dirty_segments() == []

    def test_note_write_dirties(self):
        usage = SegmentUsage(8, 512 << 10)
        usage.note_write(3, 4096, now=1.0)
        assert not usage.is_clean(3)
        assert usage.live_bytes[3] == 4096
        assert usage.last_write[3] == 1.0

    def test_note_dead_floors_at_zero(self):
        usage = SegmentUsage(8, 512 << 10)
        usage.note_write(3, 4096, now=0.0)
        usage.note_dead(3, 8192)
        assert usage.live_bytes[3] == 0

    def test_reclaimable_requires_zero_live(self):
        usage = SegmentUsage(8, 512 << 10)
        usage.note_write(3, 4096, now=0.0)
        assert usage.reclaimable() == []
        usage.note_dead(3, 4096)
        assert usage.reclaimable() == [3]

    def test_exclude_filters(self):
        usage = SegmentUsage(8, 512 << 10)
        usage.note_write(3, 4096, now=0.0)
        assert 3 not in usage.dirty_segments(exclude=3)

    def test_mark_clean_resets(self):
        usage = SegmentUsage(8, 512 << 10)
        usage.note_write(3, 4096, now=0.0)
        usage.mark_clean(3)
        assert usage.is_clean(3)
        assert usage.live_bytes[3] == 0

    def test_utilization(self):
        usage = SegmentUsage(8, 1000)
        usage.note_write(0, 250, now=0.0)
        assert usage.utilization(0) == pytest.approx(0.25)

    def test_pack_load_roundtrip(self):
        usage = SegmentUsage(4, 512 << 10)
        usage.note_write(1, 9999, now=2.5)
        usage.note_write(3, 1, now=0.5)
        usage.mark_clean(3)
        fresh = SegmentUsage(4, 512 << 10)
        fresh.load(usage.pack())
        assert fresh.live_bytes == usage.live_bytes
        assert fresh.last_write == usage.last_write
        assert fresh.clean_segments() == usage.clean_segments()

    def test_bounds(self):
        usage = SegmentUsage(4, 512 << 10)
        with pytest.raises(ValueError):
            usage.note_write(4, 1, now=0.0)
