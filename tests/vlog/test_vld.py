"""The Virtual Log Disk behind the standard block-device interface."""

import random

import pytest

from repro.disk.disk import Disk
from repro.disk.specs import ST19101
from repro.vlog.vld import VirtualLogDisk
from tests.vlog.test_recovery import _read_record
from tests._media import corrupt_power_down_record


@pytest.fixture
def disk():
    return Disk(ST19101)


@pytest.fixture
def vld(disk):
    return VirtualLogDisk(disk)


class TestBlockDeviceSemantics:
    def test_logical_capacity_below_physical(self, vld):
        assert vld.num_blocks < vld.physical_blocks

    def test_unwritten_blocks_read_zero(self, vld):
        data, _ = vld.read_block(42)
        assert data == bytes(4096)

    def test_write_read_roundtrip(self, vld):
        vld.write_block(7, b"\x77" * 4096)
        data, _ = vld.read_block(7)
        assert data == b"\x77" * 4096

    def test_multi_block_roundtrip(self, vld):
        payload = bytes(range(256)) * 64  # 4 blocks
        vld.write_blocks(100, 4, payload)
        data, _ = vld.read_blocks(100, 4)
        assert data == payload

    def test_overwrite_returns_new_data(self, vld):
        vld.write_block(3, b"a" * 4096)
        vld.write_block(3, b"b" * 4096)
        data, _ = vld.read_block(3)
        assert data == b"b" * 4096

    def test_partial_write_merges(self, vld):
        vld.write_block(9, b"\x11" * 4096)
        vld.write_partial(9, 1024, b"\x22" * 1024)
        data, _ = vld.read_block(9)
        assert data[:1024] == b"\x11" * 1024
        assert data[1024:2048] == b"\x22" * 1024

    def test_partial_write_to_unmapped_block(self, vld):
        vld.write_partial(9, 512, b"\x33" * 512)
        data, _ = vld.read_block(9)
        assert data[:512] == bytes(512)
        assert data[512:1024] == b"\x33" * 512

    def test_lba_bounds(self, vld):
        with pytest.raises(ValueError):
            vld.read_block(vld.num_blocks)

    def test_a_timing_only_disk_is_refused(self):
        # The map, its log and the power-down record live on the media:
        # over a disk that keeps no sectors a write was acknowledged and
        # then neither read_block nor crash() + recover() could run.
        with pytest.raises(ValueError, match="store_data=False"):
            VirtualLogDisk(Disk(ST19101, num_cylinders=2, store_data=False))


class TestEagerWritingBehaviour:
    def test_overwrite_relocates_physically(self, vld):
        vld.write_block(5, b"a" * 4096)
        first = vld.imap.get(5)
        vld.write_block(5, b"b" * 4096)
        second = vld.imap.get(5)
        assert first != second

    def test_overwrite_frees_old_location(self, vld):
        vld.write_block(5, b"a" * 4096)
        first = vld.imap.get(5)
        vld.write_block(5, b"b" * 4096)
        assert vld.freemap.run_is_free(first * 8, 8)
        assert first not in vld.reverse

    def test_one_scsi_charge_per_logical_request(self, vld):
        breakdown = vld.write_block(1, b"x" * 4096)
        assert breakdown.scsi == pytest.approx(ST19101.scsi_overhead)

    def test_trim_frees_space(self, vld):
        vld.write_block(2, b"x" * 4096)
        physical = vld.imap.get(2)
        vld.trim(2)
        assert vld.imap.get(2) is None
        assert vld.freemap.run_is_free(physical * 8, 8)
        data, _ = vld.read_block(2)
        assert data == bytes(4096)

    def test_random_sync_writes_cheap(self, vld, disk):
        """The headline property: synchronous random writes cost far less
        than the seek + half-rotation of update-in-place."""
        rng = random.Random(11)
        total = 0.0
        trials = 100
        for i in range(trials):
            lba = rng.randrange(vld.num_blocks)
            total += vld.write_block(lba, bytes([i % 251]) * 4096).total
        mean = total / trials
        half_rotation = disk.mechanics.rotation_time / 2
        assert mean < half_rotation  # in-place would pay this plus a seek

    def test_utilization_tracks_writes(self, vld):
        start = vld.utilization
        for lba in range(100):
            vld.write_block(lba, b"d" * 4096)
        assert vld.utilization > start

    def test_sequential_read_mostly_served_by_track_buffer(self, vld):
        """Even with map records interleaved among the data blocks, the
        full-track read-ahead fix (Section 4.2) keeps sequential reads
        cheap: most blocks come from the buffer, not the media."""
        for lba in range(32):
            vld.write_block(lba, bytes([lba]) * 4096)
        data, breakdown = vld.read_blocks(0, 32)
        assert data == b"".join(bytes([l]) * 4096 for l in range(32))
        # Positioning happens only on the handful of track-buffer misses.
        assert breakdown.locate < 3 * vld.disk.mechanics.rotation_time


class TestCrashRecovery:
    def _fill(self, vld, n=200, seed=5):
        rng = random.Random(seed)
        expected = {}
        for _ in range(n):
            lba = rng.randrange(vld.num_blocks)
            payload = bytes([rng.randrange(256)]) * 4096
            vld.write_block(lba, payload)
            expected[lba] = payload
        return expected

    def test_power_down_then_recover_uses_record(self, vld):
        expected = self._fill(vld)
        vld.power_down()
        vld.crash()
        outcome = vld.recover()
        assert outcome.used_power_down_record
        assert not outcome.scanned
        for lba, payload in expected.items():
            data, _ = vld.read_block(lba)
            assert data == payload

    def test_crash_without_record_falls_back_to_scan(self, vld):
        expected = self._fill(vld)
        vld.crash()
        outcome = vld.recover()
        assert outcome.scanned
        assert outcome.blocks_scanned > 0
        for lba, payload in expected.items():
            data, _ = vld.read_block(lba)
            assert data == payload

    def test_corrupt_power_down_record_forces_scan(self, vld):
        self._fill(vld, n=50)
        vld.power_down()
        corrupt_power_down_record(vld.power_store)
        vld.crash()
        outcome = vld.recover()
        assert outcome.scanned

    def test_record_cleared_after_recovery(self, vld):
        self._fill(vld, n=20)
        vld.power_down()
        vld.crash()
        vld.recover()
        record = _read_record(vld.power_store)
        assert record is None  # Section 3.2: "clear it after recovery"

    def test_fast_recovery_vs_scan_recovery_cost(self, vld):
        """The virtual log's selling point: recovery from the tail record
        is much cheaper than scanning the disk."""
        self._fill(vld, n=100)
        vld.power_down()
        vld.crash()
        fast = vld.recover()
        self._fill(vld, n=5)
        vld.crash()
        slow = vld.recover()
        assert slow.scanned and not fast.scanned
        # Tail-record recovery reads only live map records (scattered, so
        # each costs a positioning); the scan reads the whole disk.  On
        # this ~22 MB slice that is a ~4-5x gap, and it grows linearly
        # with capacity.
        assert fast.elapsed < slow.elapsed / 3
        assert slow.blocks_scanned > 100 * fast.records_read

    def test_recovery_preserves_invariants_and_service(self, vld):
        expected = self._fill(vld, n=150)
        vld.power_down()
        vld.crash()
        vld.recover()
        vld.vlog.check_invariants()
        # Space accounting must be consistent: every mapped block used.
        for lba, physical in vld.imap.items():
            assert not vld.freemap.run_is_free(physical * 8, 8)
        # And the device keeps working.
        vld.write_block(0, b"new!" + bytes(4092))
        data, _ = vld.read_block(0)
        assert data.startswith(b"new!")

    def test_fresh_device_recovery_is_noop(self, vld):
        outcome = vld.recover()
        assert outcome.records_read == 0
        data, _ = vld.read_block(0)
        assert data == bytes(4096)

    def test_uncommitted_write_lost_but_older_data_safe(self, vld):
        """Atomicity: a crash between data write and map commit recovers
        the old contents (simulated via direct state surgery)."""
        vld.write_block(4, b"old" + bytes(4093))
        vld.power_down()
        # Simulate: new data written but map never committed -- the disk
        # image after power_down simply lacks the new version.
        vld.crash()
        vld.recover()
        data, _ = vld.read_block(4)
        assert data.startswith(b"old")
