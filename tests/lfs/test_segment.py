import pytest

from repro.blockdev.regular import RegularDisk
from repro.disk.disk import Disk
from repro.disk.specs import ST19101
from repro.lfs.layout import LFSLayout
from repro.lfs.segment import (
    BlockKind,
    SegmentSummary,
    SegmentWriter,
    SummaryEntry,
)


@pytest.fixture
def setup():
    device = RegularDisk(Disk(ST19101))
    layout = LFSLayout.design(device.num_blocks)
    free = list(range(layout.sb.num_segments))
    writer = SegmentWriter(
        device, layout, pick_free_segment=lambda: free.pop(0),
        partial_threshold=0.75,
    )
    return device, layout, writer


class TestSummary:
    def test_roundtrip(self):
        summary = SegmentSummary(
            seqno=5,
            timestamp=1.25,
            entries=[
                SummaryEntry(BlockKind.DATA, 2, 7),
                SummaryEntry(BlockKind.INODE_BLOCK, 1, 0),
                SummaryEntry(BlockKind.INDIRECT, 2, BlockKind.SINGLE_INDIRECT),
            ],
        )
        parsed = SegmentSummary.unpack(summary.pack(4096))
        assert parsed == summary

    def test_garbage_rejected(self):
        assert SegmentSummary.unpack(bytes(4096)) is None

    def test_negative_fblk_codes(self):
        assert BlockKind.level1(0) == -3
        assert BlockKind.level1(5) == -8


class TestWriter:
    def test_stage_assigns_monotonic_addresses(self, setup):
        _device, layout, writer = setup
        addresses = [
            writer.stage(BlockKind.DATA, 2, i, bytes(4096))[0]
            for i in range(5)
        ]
        start = layout.segment_start(0)
        assert addresses == [start + 1 + i for i in range(5)]

    def test_staged_data_visible_before_write(self, setup):
        _device, _layout, writer = setup
        payload = b"peekaboo" + bytes(4088)
        address, _ = writer.stage(BlockKind.DATA, 2, 0, payload)
        assert writer.staged_data(address) == payload
        assert writer.staged_data(address + 1) is None

    def test_full_segment_auto_writes(self, setup):
        device, layout, writer = setup
        for i in range(layout.data_blocks_per_segment):
            writer.stage(BlockKind.DATA, 2, i, bytes([i % 256]) * 4096)
        assert writer.segments_written == 1
        assert writer.staged_blocks == 0
        # Summary landed at the segment start.
        raw, _ = device.read_block(layout.segment_start(0))
        summary = SegmentSummary.unpack(raw)
        assert len(summary.entries) == layout.data_blocks_per_segment

    def test_wrong_block_size_rejected(self, setup):
        _device, _layout, writer = setup
        with pytest.raises(ValueError):
            writer.stage(BlockKind.DATA, 2, 0, b"small")

    def test_sync_below_threshold_is_partial(self, setup):
        device, layout, writer = setup
        for i in range(10):  # well below 75 % of 127
            writer.stage(BlockKind.DATA, 2, i, bytes(4096))
        writer.sync()
        assert writer.partial_flushes == 1
        assert writer.staged_blocks == 10  # memory copy retained
        assert writer.current_segment == 0

    def test_sync_above_threshold_retires_segment(self, setup):
        _device, layout, writer = setup
        for i in range(100):  # above 75 % of 127
            writer.stage(BlockKind.DATA, 2, i, bytes(4096))
        writer.sync()
        assert writer.segments_written == 1
        assert writer.current_segment is None

    def test_second_partial_sync_writes_only_delta(self, setup):
        device, _layout, writer = setup
        for i in range(10):
            writer.stage(BlockKind.DATA, 2, i, bytes(4096))
        writer.sync()
        written = device.disk.counters.sectors_written
        writer.stage(BlockKind.DATA, 2, 10, bytes(4096))
        writer.sync()
        delta_sectors = device.disk.counters.sectors_written - written
        # summary (8 sectors) + one new block (8 sectors)
        assert delta_sectors == 16

    def test_sync_with_nothing_staged_is_noop(self, setup):
        device, _layout, writer = setup
        before = device.disk.counters.writes
        writer.sync()
        assert device.disk.counters.writes == before

    def test_partial_then_fill_writes_whole_segment_consistently(self, setup):
        device, layout, writer = setup
        for i in range(10):
            writer.stage(BlockKind.DATA, 2, i, bytes([i]) * 4096)
        writer.sync()
        for i in range(10, layout.data_blocks_per_segment):
            writer.stage(BlockKind.DATA, 2, i, bytes([i % 256]) * 4096)
        start = layout.segment_start(0)
        for i in range(layout.data_blocks_per_segment):
            data, _ = device.read_block(start + 1 + i)
            assert data == bytes([i % 256]) * 4096

    def test_invalid_threshold_rejected(self, setup):
        device, layout, _writer = setup
        with pytest.raises(ValueError):
            SegmentWriter(device, layout, lambda: 0, partial_threshold=0.0)
