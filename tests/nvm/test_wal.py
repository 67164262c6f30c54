"""The NVM write-ahead tier: absorption, reads, destage, backpressure."""

import hashlib
import random

import pytest

from repro.blockdev.nvm import NVM_SPECS, NVMSpec
from repro.blockdev.regular import RegularDisk
from repro.disk.disk import Disk
from repro.disk.specs import ST19101
from repro.nvm import NVWal
from repro.sim.clock import SimClock
from repro.vlog.vld import VirtualLogDisk


@pytest.fixture
def clock():
    return SimClock()


@pytest.fixture
def disk(clock):
    return Disk(ST19101, clock)


@pytest.fixture
def vld(disk):
    return VirtualLogDisk(disk)


@pytest.fixture
def wal(vld):
    return NVWal(vld)


def _blk(byte, size=4096):
    return bytes([byte]) * size


class TestAbsorption:
    def test_small_write_does_not_touch_backing(self, wal, vld):
        before = vld.disk.clock.now
        wal.write_block(5, _blk(0x55))
        assert wal.absorbed_writes == 1
        assert wal.dirty_blocks == 1
        # The backing VLD has no mapping yet: the write lives in NVM only.
        assert vld.imap.get(5) is None

    def test_ack_is_orders_faster_than_backing(self, wal, vld, clock):
        wal.write_block(5, _blk(0x55))
        nvm_ack = clock.now
        vld.write_block(6, _blk(0x66))
        disk_ack = clock.now - nvm_ack
        assert nvm_ack < disk_ack / 100

    def test_read_your_writes_from_tier(self, wal):
        wal.write_block(5, _blk(0x55))
        data, _ = wal.read_block(5)
        assert data == _blk(0x55)

    def test_clean_read_passes_through(self, wal, vld):
        vld.write_block(9, _blk(0x99))
        data, _ = wal.read_block(9)
        assert data == _blk(0x99)

    def test_mixed_run_read_stitches_tier_and_backing(self, wal, vld):
        vld.write_blocks(10, 4, _blk(0xAA) * 4)
        wal.write_block(11, _blk(0xBB))
        wal.trim(13, 1)
        data, _ = wal.read_blocks(10, 4)
        assert data == _blk(0xAA) + _blk(0xBB) + _blk(0xAA) + bytes(4096)

    def test_large_write_bypasses_tier(self, wal, vld):
        count = wal.absorb_max_blocks + 1
        payload = _blk(0xCC) * count
        wal.write_blocks(0, count, payload)
        assert wal.bypassed_writes == 1
        assert wal.dirty_blocks == 0
        data, _ = vld.read_blocks(0, count)
        assert data == payload

    def test_bypass_drains_overlapping_dirty_first(self, wal, vld):
        wal.write_block(3, _blk(0x11))  # older, absorbed
        count = wal.absorb_max_blocks + 1
        payload = _blk(0x22) * count
        wal.write_blocks(0, count, payload)  # newer, bypassed, overlaps
        # Tier drained before the bypass: nothing can destage (or replay)
        # stale 0x11 bytes over the newer passthrough data.
        assert wal.dirty_blocks == 0
        data, _ = wal.read_block(3)
        assert data == _blk(0x22)

    def test_partial_write_through_tier(self, wal):
        wal.write_block(9, _blk(0x11))
        wal.write_partial(9, 1024, b"\x22" * 1024)
        data, _ = wal.read_block(9)
        assert data[:1024] == b"\x11" * 1024
        assert data[1024:2048] == b"\x22" * 1024
        assert data[2048:] == b"\x11" * 2048

    def test_trim_reads_zero(self, wal, vld):
        vld.write_block(4, _blk(0x44))
        wal.trim(4, 1)
        data, _ = wal.read_block(4)
        assert data == bytes(4096)


class TestDestage:
    def test_idle_destages_to_backing(self, wal, vld):
        wal.write_block(5, _blk(0x55))
        wal.idle(1.0)
        assert wal.dirty_blocks == 0
        assert vld.imap.get(5) is not None
        data, _ = vld.read_block(5)
        assert data == _blk(0x55)

    def test_destage_resets_log(self, wal):
        wal.write_block(5, _blk(0x55))
        wal.idle(1.0)
        assert wal.log_resets == 1
        assert wal.dirty_blocks == 0

    def test_idle_budget_reaches_backing_compactor(self, wal, vld):
        # The idle chain must hand leftover time to the backing store:
        # the VLD's own idle machinery still gets its grant.
        wal.write_block(5, _blk(0x55))
        start = wal.clock.now
        wal.idle(2.0)
        assert wal.clock.now == pytest.approx(start + 2.0)

    def test_zero_budget_idle_is_safe(self, wal):
        wal.write_block(5, _blk(0x55))
        wal.idle(0.0)

    def test_destage_preserves_later_overwrite(self, wal, vld):
        wal.write_block(5, _blk(0x55))
        wal.write_block(5, _blk(0x66))
        wal.destage_all()
        data, _ = vld.read_block(5)
        assert data == _blk(0x66)

    def test_trim_destages_to_backing_trim(self, wal, vld):
        vld.write_block(4, _blk(0x44))
        wal.trim(4, 1)
        wal.destage_all()
        assert vld.imap.get(4) is None

    def test_backpressure_destages_when_log_full(self, disk):
        vld = VirtualLogDisk(disk)
        # ~96 KiB of NVM: a handful of 4 KiB records before backpressure.
        spec = NVM_SPECS["nvdimm"].with_overrides(capacity_bytes=96 << 10)
        wal = NVWal(vld, spec=spec)
        for i in range(60):
            wal.write_block(i, _blk(i & 0xFF))
        assert wal.pressure_destages > 0
        # Every write is still readable with the newest contents.
        for i in range(60):
            data, _ = wal.read_block(i)
            assert data == _blk(i & 0xFF)

    def test_power_down_drains_then_stops_backing(self, wal, vld):
        wal.write_block(5, _blk(0x55))
        wal.power_down()
        assert wal.dirty_blocks == 0
        outcome = wal.recover()
        assert outcome.replayed_records == 0
        assert outcome.used_power_down_record  # delegated to the VLD

    def test_works_over_regular_disk(self, clock):
        disk = Disk(ST19101, clock)
        device = RegularDisk(disk)
        wal = NVWal(device)
        wal.write_block(5, _blk(0x55))
        data, _ = wal.read_block(5)
        assert data == _blk(0x55)
        wal.idle(1.0)
        data, _ = device.read_block(5)
        assert data == _blk(0x55)
        # A device with no volatile state recovers to the empty outcome.
        wal.write_block(6, _blk(0x66))
        wal.power_down()
        outcome = wal.recover()
        assert outcome.inner.elapsed == 0.0 and not outcome.inner.parts
        assert not outcome.used_power_down_record


class TestCapacityGuards:
    def test_rejects_nvm_too_small_for_one_record(self, vld):
        with pytest.raises(ValueError):
            NVWal(vld, spec=NVMSpec(capacity_bytes=1 << 10))

    def test_oversized_record_bypasses(self, vld):
        # absorb_max_blocks would allow it, but the log cannot hold it.
        spec = NVM_SPECS["nvdimm"].with_overrides(capacity_bytes=96 << 10)
        wal = NVWal(vld, spec=spec)
        payload = _blk(0xDD) * 32  # 128 KiB > 96 KiB log
        wal.write_blocks(0, 32, payload)
        assert wal.bypassed_writes == 1
        data, _ = vld.read_blocks(0, 32)
        assert data == payload


class TestDestageCostsWhatItDestages:
    """DESIGN.md section 16, "the lazy destage walk"."""

    def test_deadline_bound_destage_reads_only_the_runs_it_writes(self, wal):
        class CountingDirty(dict):
            reads = 0

            def __getitem__(self, key):
                CountingDirty.reads += 1
                return dict.__getitem__(self, key)

        cap = wal.destage_run_blocks
        # Twenty neighbours (one capped run, then the four left over),
        # then 1 980 blocks no two of which touch.
        for lba in [*range(20), *range(22, 22 + 2 * 1980, 2)]:
            wal.write_block(lba, _blk(1 + lba % 255))
        assert wal.dirty_blocks == 2000
        wal._dirty = CountingDirty(wal._dirty)
        # An idle budget of about one capped run's media time: the
        # deadline is tested before each run, so one or two runs go down.
        budget = 1.1 * wal.inner.write_blocks(4100, cap, _blk(7) * cap).total
        CountingDirty.reads = 0
        wal._idle_destage(budget)
        destaged = wal.destaged_blocks
        assert cap <= destaged <= 2 * cap
        # The tier read the payloads it sent down and no others (every
        # dirty run used to be joined before the first was written).
        assert CountingDirty.reads == destaged
        assert wal.dirty_blocks == 2000 - destaged
        data, _ = wal.inner.read_blocks(0, cap)
        assert data == b"".join(_blk(1 + lba) for lba in range(cap))

    def test_log_image_bytes_are_pinned(self, wal):
        """Fifty appends -- single blocks, runs, trims, a partial write --
        leave the NVM image they left before ``_record_bytes`` stopped
        concatenating header and payload to checksum them (sha256
        recorded at the parent commit)."""
        rng = random.Random(5)
        for i in range(50):
            roll = rng.random()
            lba = rng.randrange(2000)
            if roll < 0.6:
                wal.write_block(lba, _blk(1 + i))
            elif roll < 0.8:
                count = rng.randint(2, 5)
                wal.write_blocks(
                    lba, count, b"".join(_blk(i + k) for k in range(count))
                )
            elif roll < 0.9:
                wal.trim(lba, rng.randint(1, 3))
            else:
                wal.write_partial(lba, 512, b"\x5a" * 700)
        assert wal._seq == 50
        image = wal.nvm.persisted(0, wal._tail)
        assert hashlib.sha256(image).hexdigest() == (
            "aa477170f8293a17dd01180e8dfd5bd8e612370d9bff381afe0b740d05f6ef96"
        )
