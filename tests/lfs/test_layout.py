import pytest

from repro.blockdev.regular import RegularDisk
from repro.disk.disk import Disk
from repro.disk.specs import ST19101
from repro.hosts.specs import SPARCSTATION_10
from repro.lfs.layout import LFSLayout
from repro.lfs.lfs import LFS


@pytest.fixture
def layout():
    return LFSLayout.design(total_blocks=5632)


class TestDesign:
    def test_paper_segment_size(self, layout):
        assert layout.segment_bytes == 512 << 10
        assert layout.segment_blocks == 128
        assert layout.data_blocks_per_segment == 127

    def test_segment_count_fits_device(self, layout):
        last = layout.segment_start(layout.sb.num_segments - 1)
        assert last + layout.segment_blocks <= 5632

    def test_checkpoint_slots_before_segments(self, layout):
        assert layout.checkpoint_slot_start(0) >= 1
        assert layout.checkpoint_slot_start(1) > layout.checkpoint_slot_start(0)
        assert layout.sb.seg_start > layout.checkpoint_slot_start(1)

    def test_tiny_device_rejected(self):
        with pytest.raises(ValueError):
            LFSLayout.design(total_blocks=100)

    def test_bad_checkpoint_slot(self, layout):
        with pytest.raises(ValueError):
            layout.checkpoint_slot_start(2)


class TestAddressing:
    def test_segment_of_block_roundtrip(self, layout):
        for segment in (0, 1, layout.sb.num_segments - 1):
            start = layout.segment_start(segment)
            assert layout.segment_of_block(start) == segment
            assert layout.segment_of_block(start + 127) == segment

    def test_non_log_block_rejected(self, layout):
        with pytest.raises(ValueError):
            layout.segment_of_block(0)

    def test_segment_bounds(self, layout):
        with pytest.raises(ValueError):
            layout.segment_start(layout.sb.num_segments)


class TestSuperblock:
    def test_roundtrip(self):
        """Formatting writes the packed superblock, one block, to block 0."""
        lfs = LFS(RegularDisk(Disk(ST19101)), SPARCSTATION_10)
        raw = lfs.layout.sb.pack()
        assert len(raw) == lfs.block_size
        assert lfs.device.read_block(0)[0] == raw
