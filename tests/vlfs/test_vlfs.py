"""VLFS: the Section 3.3 design, built and behaving as the paper
speculates."""

import random

import pytest

from repro.blockdev.regular import RegularDisk
from repro.disk.cache import ReadAheadPolicy
from repro.disk.disk import Disk
from repro.disk.specs import ST19101
from repro.fs.api import FileExists, FileNotFound
from repro.hosts.specs import SPARCSTATION_10
from repro.lfs.lfs import LFS
from repro.ufs.ufs import UFS
from repro.vlfs.vlfs import VLFS
from repro.vlog.vld import VirtualLogDisk
from tests._media import corrupt_power_down_record


@pytest.fixture
def vlfs():
    return VLFS(Disk(ST19101), SPARCSTATION_10)


class TestFileSystemSemantics:
    def test_namespace_operations(self, vlfs):
        vlfs.mkdir("/d")
        vlfs.create("/d/f")
        assert vlfs.exists("/d/f")
        with pytest.raises(FileExists):
            vlfs.create("/d/f")
        vlfs.unlink("/d/f")
        with pytest.raises(FileNotFound):
            vlfs.unlink("/d/f")
        vlfs.rmdir("/d")
        assert not vlfs.exists("/d")

    def test_write_read_roundtrip(self, vlfs):
        vlfs.create("/f")
        vlfs.write("/f", 0, b"virtual log fs" * 100)
        vlfs.sync()
        vlfs.drop_caches()
        data, _ = vlfs.read("/f", 0, 1400)
        assert data == (b"virtual log fs" * 100)[:1400]

    def test_large_file_with_indirects(self, vlfs):
        blob = bytes(range(256)) * 16 * 1100  # ~4.4 MB
        vlfs.create("/big")
        vlfs.write("/big", 0, blob)
        vlfs.sync()
        vlfs.drop_caches()
        data, _ = vlfs.read("/big", 0, len(blob))
        assert data == blob

    def test_fuzz_against_reference(self, vlfs):
        rng = random.Random(99)
        vlfs.create("/fuzz")
        model = bytearray()
        for step in range(40):
            offset = rng.randrange(0, 40000)
            payload = bytes([rng.randrange(256)]) * rng.randrange(1, 8000)
            vlfs.write("/fuzz", offset, payload, sync=bool(step % 3))
            if len(model) < offset + len(payload):
                model.extend(bytes(offset + len(payload) - len(model)))
            model[offset : offset + len(payload)] = payload
        vlfs.sync()
        vlfs.drop_caches()
        data, _ = vlfs.read("/fuzz", 0, len(model))
        assert data == bytes(model)

    def test_unlink_returns_space(self, vlfs):
        before = vlfs.utilization
        vlfs.create("/f")
        vlfs.write("/f", 0, bytes(4096) * 200)
        vlfs.sync()
        assert vlfs.utilization > before
        vlfs.unlink("/f")
        vlfs.sync()
        assert vlfs.utilization == pytest.approx(before, abs=0.01)


class TestEagerWriting:
    def test_no_cleaner_ever_runs(self, vlfs):
        rng = random.Random(3)
        vlfs.create("/churn")
        blob = bytes(4096) * 256
        for chunk in range(10):
            vlfs.write("/churn", chunk * len(blob), blob)
        vlfs.sync()
        for _ in range(600):
            vlfs.write(
                "/churn", rng.randrange(2560) * 4096, b"u" * 4096, sync=True
            )
        # Eager writing has no cleaner to run, and no segment usage
        # table for one to read.
        assert not hasattr(vlfs, "cleaner")
        assert not hasattr(vlfs, "segusage")

    def test_overwrites_relocate_blocks(self, vlfs):
        vlfs.create("/f")
        vlfs.write("/f", 0, b"1" * 4096, sync=True)
        inode = vlfs._inodes[vlfs.stat("/f").inum]
        first = inode.direct[0]
        vlfs.write("/f", 0, b"2" * 4096, sync=True)
        assert inode.direct[0] != first
        # The old block returned to the free pool.
        assert vlfs.freemap.run_is_free(first * 8, 8)

    def test_sync_writes_hit_disk_async_do_not(self, vlfs):
        vlfs.create("/f")
        writes = vlfs.disk.counters.writes
        vlfs.write("/f", 0, b"a" * 4096)
        assert vlfs.disk.counters.writes == writes
        vlfs.write("/f", 4096, b"b" * 4096, sync=True)
        assert vlfs.disk.counters.writes > writes

    @pytest.mark.parametrize("offset", [-512, 3584])
    def test_internal_partial_write_outside_the_block_is_refused(
        self, vlfs, offset
    ):
        """The drive's internal device refuses a range outside its block
        the way every other device does, before the media is touched."""
        writes = vlfs.disk.counters.writes
        with pytest.raises(ValueError):
            vlfs.device.write_partial(5, offset, b"\x7f" * 1024)
        assert vlfs.disk.counters.writes == writes


class TestRecovery:
    def _populate(self, vlfs, seed=4, files=8):
        rng = random.Random(seed)
        contents = {}
        for i in range(files):
            name = f"/file{i}"
            vlfs.create(name)
            payload = bytes([rng.randrange(256)]) * rng.randrange(100, 30000)
            vlfs.write(name, 0, payload)
            contents[name] = payload
        return contents

    def test_power_down_recovery(self, vlfs):
        contents = self._populate(vlfs)
        vlfs.power_down()
        vlfs.crash()
        outcome = vlfs.recover()
        assert outcome.used_power_down_record
        for name, payload in contents.items():
            data, _ = vlfs.read(name, 0, len(payload))
            assert data == payload
        vlfs.vlog.check_invariants()

    def test_scan_fallback_recovery(self, vlfs):
        contents = self._populate(vlfs)
        vlfs.power_down()
        corrupt_power_down_record(vlfs.power_store)
        vlfs.crash()
        outcome = vlfs.recover()
        assert outcome.scanned
        for name, payload in contents.items():
            data, _ = vlfs.read(name, 0, len(payload))
            assert data == payload

    def test_recovery_restores_space_accounting(self, vlfs):
        self._populate(vlfs)
        vlfs.power_down()
        used_before = vlfs.freemap.free_sectors
        vlfs.crash()
        vlfs.recover()
        assert vlfs.freemap.free_sectors == used_before
        # And service continues.
        vlfs.create("/after")
        vlfs.write("/after", 0, b"works", sync=True)
        data, _ = vlfs.read("/after", 0, 5)
        assert data == b"works"

    def test_write_after_power_down_invalidates_the_record(self, vlfs):
        """power_down() without recover(), then one more acknowledged
        write: the record names a tail the log has moved past, so the log
        erases it before appending.  (VLFS used to leave it: recovery
        trusted the stale tail and the new file was gone.)"""
        contents = self._populate(vlfs)
        vlfs.power_down()
        vlfs.create("/g")
        vlfs.write("/g", 0, b"after the record", sync=True)
        vlfs.sync()
        vlfs.crash()
        outcome = vlfs.recover()
        assert outcome.scanned
        assert not outcome.used_power_down_record
        data, _ = vlfs.read("/g", 0, 16)
        assert data == b"after the record"
        for name, payload in contents.items():
            data, _ = vlfs.read(name, 0, len(payload))
            assert data == payload
        vlfs.vlog.check_invariants()

    def test_recovers_after_recorded_tail_block_is_recycled(self, vlfs):
        """Enough writes after power_down() that the block the record
        named holds no map record any more (recovery used to raise
        ``ValueError: block N does not hold a map record``)."""
        from repro.vlog.entries import MapRecord

        self._populate(vlfs)
        vlfs.power_down()
        map_spb = vlfs.vlog.sectors_per_block
        recorded_tail = vlfs.vlog.tail
        version = 0
        while MapRecord.unpack(
            vlfs.disk.peek(recorded_tail * map_spb, map_spb)
        ) is not None:
            version += 1
            assert version < 500, "recorded tail block never recycled"
            vlfs.write("/file0", 0, bytes([version % 251]) * 4096, sync=True)
        vlfs.crash()
        outcome = vlfs.recover()
        assert outcome.scanned
        data, _ = vlfs.read("/file0", 0, 4096)
        assert data == bytes([version % 251]) * 4096
        vlfs.vlog.check_invariants()

    def test_unsynced_data_lost_without_nvram(self, vlfs):
        vlfs.create("/f")
        vlfs.write("/f", 0, b"committed", sync=True)
        vlfs.sync()  # the *directory entry* needs its own flush (POSIX)
        vlfs.write("/f", 0, b"volatile!")  # buffered only
        vlfs.crash()  # no orderly power-down: buffer lost
        vlfs.recover()
        data, _ = vlfs.read("/f", 0, 9)
        assert data == b"committed"

    def test_nvram_preserves_buffered_writes(self):
        vlfs = VLFS(Disk(ST19101), SPARCSTATION_10, nvram=True)
        vlfs.create("/f")
        vlfs.write("/f", 0, b"committed", sync=True)
        vlfs.write("/f", 0, b"nv-safe!!")
        vlfs.crash()
        vlfs.recover()
        data, _ = vlfs.read("/f", 0, 9)
        assert data == b"nv-safe!!"


class TestPaperSpeculation:
    """Section 5.1: "by integrating LFS with the virtual log, the VLFS
    should approximate the performance of UFS on the VLD when we must
    write synchronously, while retaining the benefits of LFS when
    asynchronous buffering is acceptable."
    """

    @staticmethod
    def _sync_update_latency(fs, file_bytes=6 << 20, updates=150, seed=6):
        rng = random.Random(seed)
        fs.create("/t")
        chunk = bytes(4096) * 128
        for offset in range(0, file_bytes, len(chunk)):
            fs.write("/t", offset, chunk)
        fs.sync()
        nblocks = file_bytes // 4096
        total = 0.0
        for _ in range(updates):
            offset = rng.randrange(nblocks) * 4096
            total += fs.write("/t", offset, b"u" * 4096, sync=True).total
        return total / updates

    def test_sync_writes_approximate_ufs_on_vld(self):
        vlfs = VLFS(Disk(ST19101), SPARCSTATION_10)
        vld_disk = Disk(ST19101, readahead=ReadAheadPolicy.FULL_TRACK)
        ufs_vld = UFS(VirtualLogDisk(vld_disk), SPARCSTATION_10)
        ufs_reg = UFS(RegularDisk(Disk(ST19101)), SPARCSTATION_10)
        vlfs_lat = self._sync_update_latency(vlfs)
        vld_lat = self._sync_update_latency(ufs_vld)
        reg_lat = self._sync_update_latency(ufs_reg)
        # Same ballpark as UFS-on-VLD; far below update-in-place.
        assert vlfs_lat < 2.5 * vld_lat
        assert vlfs_lat < reg_lat / 2

    def test_async_writes_retain_lfs_benefits(self):
        vlfs = VLFS(Disk(ST19101), SPARCSTATION_10)
        lfs = LFS(RegularDisk(Disk(ST19101)), SPARCSTATION_10)
        results = {}
        for name, fs in (("vlfs", vlfs), ("lfs", lfs)):
            fs.create("/burst")
            total = 0.0
            for i in range(200):
                total += fs.write("/burst", i * 4096, b"a" * 4096).total
            results[name] = total / 200
        # Buffered writes run at memory speed on both.
        assert results["vlfs"] < 2 * results["lfs"] + 1e-3
