"""Cross-platform sanity: every stack works on both paper drives and the
projected one (the disk model is a parameter, not an assumption)."""

import random

import pytest

from repro.blockdev.regular import RegularDisk
from repro.disk.disk import Disk
from repro.disk.specs import DISKS
from repro.hosts.specs import SPARCSTATION_10, ULTRASPARC_170
from repro.lfs.lfs import LFS
from repro.ufs.ufs import UFS
from repro.vlfs.vlfs import VLFS
from repro.vlog.vld import VirtualLogDisk


@pytest.mark.parametrize("disk_name", ["hp97560", "st19101", "future2004"])
class TestEveryDrive:
    def test_vld_roundtrip_and_recovery(self, disk_name):
        vld = VirtualLogDisk(Disk(DISKS[disk_name]))
        rng = random.Random(1)
        expected = {}
        for _ in range(60):
            lba = rng.randrange(vld.num_blocks)
            payload = bytes([rng.randrange(256)]) * 4096
            vld.write_block(lba, payload)
            expected[lba] = payload
        vld.power_down()
        vld.crash()
        vld.recover()
        for lba, payload in expected.items():
            assert vld.read_block(lba)[0] == payload
        vld.vlog.check_invariants()

    def test_ufs_small_files(self, disk_name):
        fs = UFS(RegularDisk(Disk(DISKS[disk_name])), SPARCSTATION_10)
        for i in range(20):
            fs.create(f"/f{i}")
            fs.write(f"/f{i}", 0, bytes([i]) * 1500, sync=True)
        fs.sync()
        fs.drop_caches()
        for i in range(20):
            data, _ = fs.read(f"/f{i}", 0, 1500)
            assert data == bytes([i]) * 1500

    def test_lfs_log_roundtrip(self, disk_name):
        fs = LFS(RegularDisk(Disk(DISKS[disk_name])), ULTRASPARC_170)
        fs.create("/f")
        fs.write("/f", 0, b"log" * 5000)
        fs.checkpoint()
        fs.crash()
        fs.recover()
        data, _ = fs.read("/f", 0, 15000)
        assert data == b"log" * 5000

    def test_vlfs_sync_write_beats_half_rotation_budget(self, disk_name):
        spec = DISKS[disk_name]
        fs = VLFS(Disk(spec), ULTRASPARC_170)
        fs.create("/t")
        fs.write("/t", 0, bytes(4096) * 200)
        fs.sync()
        rng = random.Random(2)
        total = 0.0
        trials = 40
        for _ in range(trials):
            offset = rng.randrange(200) * 4096
            total += fs.write("/t", offset, b"u" * 4096, sync=True).total
        mean = total / trials
        # An update-in-place write pays >= seek + half rotation for data
        # plus the same again for the inode; eager writing must beat one
        # half-rotation + command overheads even on the slow drive.
        budget = spec.rotation_time / 2 + 4 * spec.scsi_overhead + 2e-3
        assert mean < budget
