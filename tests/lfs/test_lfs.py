"""End-to-end LFS behaviour: namespace, log mechanics, cleaning, recovery."""

import random

import pytest

from repro.fs.api import (
    DirectoryNotEmpty,
    FileExists,
    FileNotFound,
    NoSpace,
)
from repro.blockdev.regular import RegularDisk
from repro.disk.disk import Disk
from repro.disk.specs import ST19101
from repro.lfs.lfs import LFS
from repro.sim.stats import Breakdown


class TestNamespace:
    def test_create_stat_exists(self, lfs):
        lfs.create("/f")
        st = lfs.stat("/f")
        assert st.size == 0 and not st.is_dir
        assert lfs.exists("/f")

    def test_duplicate_rejected(self, lfs):
        lfs.create("/f")
        with pytest.raises(FileExists):
            lfs.create("/f")

    def test_nested_directories(self, lfs):
        lfs.mkdir("/a")
        lfs.mkdir("/a/b")
        lfs.create("/a/b/c")
        assert lfs.listdir("/a/b") == ["c"]

    def test_unlink_and_rmdir(self, lfs):
        lfs.mkdir("/d")
        lfs.create("/d/f")
        with pytest.raises(DirectoryNotEmpty):
            lfs.rmdir("/d")
        lfs.unlink("/d/f")
        lfs.rmdir("/d")
        assert not lfs.exists("/d")

    def test_unlink_missing(self, lfs):
        with pytest.raises(FileNotFound):
            lfs.unlink("/ghost")

    def test_create_is_memory_speed(self, lfs):
        """LFS metadata is asynchronous: no disk I/O on create."""
        writes_before = lfs.device.disk.counters.writes
        breakdown = lfs.create("/quick")
        assert lfs.device.disk.counters.writes == writes_before
        assert breakdown.locate == 0.0

    def test_unlink_frees_log_space(self, lfs):
        lfs.create("/f")
        lfs.write("/f", 0, bytes(4096) * 64)
        lfs.sync()
        live_before = sum(lfs.segusage.live_bytes)
        lfs.unlink("/f")
        assert sum(lfs.segusage.live_bytes) < live_before


class TestDataPath:
    def test_write_read_roundtrip(self, lfs):
        lfs.create("/f")
        lfs.write("/f", 0, b"log structured")
        data, _ = lfs.read("/f", 0, 14)
        assert data == b"log structured"

    def test_roundtrip_through_disk(self, lfs):
        lfs.create("/f")
        lfs.write("/f", 0, b"x" * 9000)
        lfs.sync()
        lfs.drop_caches()
        data, _ = lfs.read("/f", 0, 9000)
        assert data == b"x" * 9000

    def test_partial_overwrite(self, lfs):
        lfs.create("/f")
        lfs.write("/f", 0, b"A" * 8192)
        lfs.write("/f", 100, b"B" * 200)
        data, _ = lfs.read("/f", 0, 8192)
        assert data[:100] == b"A" * 100
        assert data[100:300] == b"B" * 200

    def test_sparse_read_zeros(self, lfs):
        lfs.create("/f")
        lfs.write("/f", 10 * 4096, b"tail")
        data, _ = lfs.read("/f", 0, 4096)
        assert data == bytes(4096)

    def test_large_file_indirect_blocks(self, lfs):
        blob = bytes(range(256)) * 16 * 1100  # ~4.4 MB: needs double ind.
        lfs.create("/big")
        lfs.write("/big", 0, blob)
        lfs.sync()
        lfs.drop_caches()
        data, _ = lfs.read("/big", 0, len(blob))
        assert data == blob

    def test_overwrites_append_not_update_in_place(self, lfs):
        lfs.create("/f")
        lfs.write("/f", 0, b"1" * 4096)
        lfs.sync()
        inode = lfs._inodes[lfs.stat("/f").inum]
        first = inode.direct[0]
        lfs.write("/f", 0, b"2" * 4096)
        lfs.sync()
        assert inode.direct[0] != first

    def test_fuzz_against_reference(self, lfs):
        rng = random.Random(123)
        lfs.create("/fuzz")
        model = bytearray()
        for step in range(50):
            offset = rng.randrange(0, 50000)
            payload = bytes([rng.randrange(256)]) * rng.randrange(1, 9000)
            lfs.write("/fuzz", offset, payload)
            if len(model) < offset + len(payload):
                model.extend(bytes(offset + len(payload) - len(model)))
            model[offset : offset + len(payload)] = payload
            if step % 10 == 0:
                lfs.sync()
                lfs.drop_caches()
        data, _ = lfs.read("/fuzz", 0, len(model))
        assert data == bytes(model)


class TestSyncSemantics:
    def test_sync_write_flushes_without_nvram(self, lfs):
        lfs.create("/f")
        writes_before = lfs.device.disk.counters.writes
        lfs.write("/f", 0, b"s" * 4096, sync=True)
        assert lfs.device.disk.counters.writes > writes_before

    def test_sync_write_absorbed_by_nvram(self, lfs_nvram):
        lfs_nvram.create("/f")
        writes_before = lfs_nvram.device.disk.counters.writes
        lfs_nvram.write("/f", 0, b"s" * 4096, sync=True)
        assert lfs_nvram.device.disk.counters.writes == writes_before

    def test_fsync_applies_partial_segment_threshold(self, lfs):
        lfs.create("/f")
        lfs.write("/f", 0, b"d" * 4096)
        lfs.fsync("/f")
        assert lfs.writer.partial_flushes >= 1

    def test_nvram_flushes_when_full(self, lfs_nvram):
        capacity = lfs_nvram.cache.capacity_blocks
        lfs_nvram.create("/f")
        writes_before = lfs_nvram.device.disk.counters.writes
        blob = bytes(4096)
        for i in range(capacity + 50):
            lfs_nvram.write("/f", i * 4096, blob, sync=True)
        assert lfs_nvram.device.disk.counters.writes > writes_before


class TestCleaner:
    def _churn(self, fs, file_mb=10, updates=3000, seed=5):
        blob = bytes(4096) * 256  # 1 MB
        fs.create("/churn")
        for chunk in range(file_mb):
            fs.write("/churn", chunk * len(blob), blob)
        fs.sync()
        rng = random.Random(seed)
        nblocks = file_mb * 256
        for _ in range(updates):
            fs.write(
                "/churn", rng.randrange(nblocks) * 4096, b"u" * 4096,
                sync=True,
            )

    def test_cleaning_triggered_under_churn(self, lfs):
        self._churn(lfs, file_mb=12, updates=2500)
        assert lfs.cleaner.segments_cleaned > 0

    def test_content_survives_cleaning(self, lfs):
        lfs.create("/keep")
        lfs.write("/keep", 0, b"precious!" + bytes(4087))
        self._churn(lfs, file_mb=12, updates=2500)
        lfs.sync()
        lfs.drop_caches()
        data, _ = lfs.read("/keep", 0, 9)
        assert data == b"precious!"

    def test_free_segments_never_exhausted(self, lfs):
        self._churn(lfs, file_mb=14, updates=3000)
        assert lfs.free_segments() >= 1

    def test_idle_cleaning_creates_free_segments(self, lfs):
        self._churn(lfs, file_mb=12, updates=1500)
        before = lfs.free_segments()
        lfs.idle(5.0)
        assert lfs.free_segments() >= before

    def test_out_of_space_raises_cleanly(self, lfs):
        blob = bytes(4096) * 256
        lfs.create("/fill")
        with pytest.raises(NoSpace):
            for chunk in range(200):  # 200 MB into a ~21 MB log
                lfs.write("/fill", chunk * len(blob), blob)
                lfs.sync()


class TestCrashRecovery:
    def test_checkpoint_and_remount(self, lfs):
        lfs.mkdir("/d")
        lfs.create("/d/f")
        lfs.write("/d/f", 0, b"durable" + bytes(4089))
        lfs.checkpoint()
        lfs.crash()
        lfs.recover()
        data, _ = lfs.read("/d/f", 0, 7)
        assert data == b"durable"

    def test_roll_forward_past_checkpoint(self, lfs):
        lfs.create("/f")
        lfs.write("/f", 0, b"old" + bytes(4093))
        lfs.checkpoint()
        lfs.write("/f", 0, b"new" + bytes(4093))
        lfs.write("/f", 4096, b"more" + bytes(4092))
        lfs.sync()  # hits the log but no checkpoint
        lfs.crash()
        lfs.recover()
        data, _ = lfs.read("/f", 0, 3)
        assert data == b"new"
        data, _ = lfs.read("/f", 4096, 4)
        assert data == b"more"

    def test_unflushed_writes_lost_without_nvram(self, lfs):
        lfs.create("/f")
        lfs.write("/f", 0, b"committed" + bytes(4087))
        lfs.checkpoint()
        lfs.write("/f", 0, b"volatile!" + bytes(4087))
        lfs.crash()  # no sync: DRAM contents vanish
        lfs.recover()
        data, _ = lfs.read("/f", 0, 9)
        assert data == b"committed"

    def test_nvram_preserves_unflushed_writes(self, lfs_nvram):
        lfs_nvram.create("/f")
        lfs_nvram.write("/f", 0, b"committed" + bytes(4087))
        lfs_nvram.checkpoint()
        lfs_nvram.write("/f", 0, b"nv-safe!!" + bytes(4087))
        lfs_nvram.crash()
        lfs_nvram.recover()
        data, _ = lfs_nvram.read("/f", 0, 9)
        assert data == b"nv-safe!!"

    def test_fresh_device_mounts(self, regular_device, host):
        fs = LFS(regular_device, host)
        fs.crash()
        fs.recover()
        fs.create("/works")
        assert fs.exists("/works")

    def test_recovery_restores_usage_accounting(self, lfs):
        lfs.create("/f")
        lfs.write("/f", 0, bytes(4096) * 300)
        lfs.checkpoint()
        lfs.write("/f", 0, b"x" * 4096)
        lfs.sync()
        live_before = sum(lfs.segusage.live_bytes)
        lfs.crash()
        lfs.recover()
        assert sum(lfs.segusage.live_bytes) == pytest.approx(
            live_before, abs=3 * 4096
        )

    def test_a_lost_write_stays_lost_after_a_second_crash(self, host):
        # An asynchronous overwrite is staged in the segment writer and
        # only partly written when the power fails.  The crash must drop
        # the staging too: a writer that kept it would finish the
        # segment on the next sync and bring the lost write back.
        fs = LFS(RegularDisk(Disk(ST19101, num_cylinders=6)), host)
        for path, tag in (("/a", 1), ("/b", 2)):
            fs.create(path)
            fs.write(path, 0, bytes([tag]) * 4096)
        fs.sync()
        fs.write("/a", 0, b"\x09" * 4096)
        fs._flush_all(Breakdown())
        assert fs.writer.staged_blocks > 0
        fs.crash()
        fs.recover()
        assert fs.read("/a", 0, 4096)[0] == b"\x01" * 4096
        fs.write("/b", 0, b"\x03" * 4096, sync=True)
        fs.crash()
        fs.recover()
        assert fs.read("/a", 0, 4096)[0] == b"\x01" * 4096
        assert fs.read("/b", 0, 4096)[0] == b"\x03" * 4096

    def test_nvram_keeps_the_staged_segment_across_a_crash(self, lfs_nvram):
        # Staging without a sync (the cleaner's copy does, and so does a
        # bare flush) marks the NVRAM cache entries clean and points the
        # surviving inodes at the staged addresses.  The staging must
        # survive with the cache, or those inodes point into a segment
        # that was never written.
        fs = lfs_nvram
        fs.create("/f")
        for i in range(8):
            fs.write("/f", i * 4096, bytes([i + 1]) * 4096)
        fs._flush_all(Breakdown())
        assert fs.writer.staged_blocks > 1
        fs.crash()
        fs.recover()
        fs.drop_caches()
        for i in range(8):
            data, _ = fs.read("/f", i * 4096, 4096)
            assert data == bytes([i + 1]) * 4096, i
