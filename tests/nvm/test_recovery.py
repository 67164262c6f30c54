"""Two-tier recovery: the NVM commit point in front of the VLD pipeline."""

import pytest

from repro.blockdev.interpose import DeviceCrashed, FaultPlane
from repro.blockdev.nvm import NVM_SPECS
from repro.blockdev.regular import RegularDisk
from repro.disk.disk import Disk
from repro.disk.specs import ST19101
from repro.harness.configs import build_sharded_volume
from repro.nvm import NVWal
from repro.sim.clock import SimClock
from repro.vlog.vld import VirtualLogDisk
from repro.vlog.recovery import RecoveryOutcome
from repro.vlog.resilience import vlfsck
from repro.volume import volume_fsck


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


class TestCrashBetweenCommitAndDestage:
    def test_acked_writes_survive_crash_before_destage(self, wal, vld):
        for i in range(8):
            wal.write_block(i, _blk(0x10 + i))
        assert wal.dirty_blocks == 8  # nothing destaged yet
        wal.crash()
        outcome = wal.recover()
        assert outcome.replayed_records == 8
        assert outcome.replayed_blocks == 8
        assert not outcome.torn_tail
        for i in range(8):
            data, _ = wal.read_block(i)
            assert data == _blk(0x10 + i)
        # The replay landed in the backing store, not just the tier.
        for i in range(8):
            data, _ = vld.read_block(i)
            assert data == _blk(0x10 + i)
        assert not vlfsck(vld).violations

    def test_overwrite_chain_replays_newest(self, wal, vld):
        wal.write_block(3, _blk(0xAA))
        wal.write_block(3, _blk(0xBB))
        wal.write_block(3, _blk(0xCC))
        wal.crash()
        outcome = wal.recover()
        assert outcome.replayed_records == 3
        assert outcome.replayed_blocks == 1  # final state per block
        data, _ = vld.read_block(3)
        assert data == _blk(0xCC)

    def test_trim_record_replays_as_trim(self, wal, vld):
        vld.write_block(4, _blk(0x44))
        wal.trim(4, 1)
        wal.crash()
        outcome = wal.recover()
        assert outcome.replayed_trims == 1
        assert vld.imap.get(4) is None
        data, _ = wal.read_block(4)
        assert data == bytes(4096)

    def test_mixed_destaged_and_pending_state(self, wal, vld):
        # Half destaged before the crash, half still NVM-only.
        for i in range(4):
            wal.write_block(i, _blk(0x20 + i))
        wal.destage_all()
        for i in range(4, 8):
            wal.write_block(i, _blk(0x20 + i))
        wal.crash()
        wal.recover()
        for i in range(8):
            data, _ = vld.read_block(i)
            assert data == _blk(0x20 + i)
        assert not vlfsck(vld).violations

    def test_recovery_runs_inner_pipeline(self, wal, vld):
        wal.write_block(1, _blk(0x11))
        wal.crash()
        outcome = wal.recover()
        assert outcome.inner is not None
        # No orderly power-down: the VLD had to scan (or found an empty
        # log); either way its own machinery ran under the tier's replay.
        assert outcome.inner.elapsed >= 0.0

    def test_clean_restart_replays_nothing(self, wal, vld):
        wal.write_block(1, _blk(0x11))
        wal.power_down()
        outcome = wal.recover()
        assert outcome.replayed_records == 0
        assert outcome.used_power_down_record


def _crash_at(wal, n, variant):
    """Drop the NVM's power at the ``n``-th record append."""
    return FaultPlane(("nvm-record", n), variant).install(wal.nvm)


class TestInjectedCrashes:
    def test_injector_crashes_on_nth_append(self, wal):
        _crash_at(wal, 3, "after")
        wal.write_block(0, _blk(0x01))
        wal.write_block(1, _blk(0x02))
        with pytest.raises(DeviceCrashed, match="NVM record 3"):
            wal.write_block(2, _blk(0x03))

    def test_untorn_crash_keeps_fatal_record(self, wal, vld):
        _crash_at(wal, 2, "after")
        wal.write_block(0, _blk(0x01))
        with pytest.raises(DeviceCrashed):
            wal.write_block(1, _blk(0x02))
        wal.nvm.faults = None
        wal.crash()
        outcome = wal.recover()
        # The record persisted before power dropped: both writes replay.
        assert outcome.replayed_records == 2
        assert not outcome.torn_tail
        data, _ = vld.read_block(1)
        assert data == _blk(0x02)

    def test_torn_crash_discards_fatal_record_only(self, wal, vld):
        _crash_at(wal, 2, "torn")
        wal.write_block(0, _blk(0x01))
        with pytest.raises(DeviceCrashed):
            wal.write_block(1, _blk(0x02))
        wal.nvm.faults = None
        wal.crash()
        outcome = wal.recover()
        # The torn append never committed; the earlier acked write did.
        assert outcome.replayed_records == 1
        assert outcome.torn_tail
        data, _ = vld.read_block(0)
        assert data == _blk(0x01)
        # The torn block reads old (here: unwritten), never garbage.
        data, _ = vld.read_block(1)
        assert data == bytes(4096)

    def test_write_after_torn_recovery_works(self, wal, vld):
        _crash_at(wal, 1, "torn")
        with pytest.raises(DeviceCrashed):
            wal.write_block(0, _blk(0x01))
        wal.nvm.faults = None
        wal.crash()
        wal.recover()
        wal.write_block(0, _blk(0x02))
        wal.destage_all()
        data, _ = vld.read_block(0)
        assert data == _blk(0x02)
        assert not vlfsck(vld).violations

    def test_a_crashed_tier_acknowledges_nothing(self, wal):
        # Once the power is gone no later write may be acknowledged: an
        # append at the same tail, over the torn bytes and with the same
        # seqno, would survive recovery although the device was dead.
        _crash_at(wal, 2, "torn")
        wal.write_block(1, _blk(0x01))
        with pytest.raises(DeviceCrashed):
            wal.write_block(2, _blk(0x02))
        stores = wal.nvm.stats()["stores"]
        with pytest.raises(DeviceCrashed):
            wal.write_block(3, _blk(0x03))
        with pytest.raises(DeviceCrashed):
            wal.trim(1)
        assert wal.nvm.stats()["stores"] == stores

    @pytest.mark.parametrize("variant", ["before", "torn", "after"])
    def test_each_variant_persists_what_it_says(self, wal, variant):
        wal.write_block(0, _blk(0x01))
        tail = wal._tail
        _crash_at(wal, 1, variant)  # counted from here: the next append
        with pytest.raises(DeviceCrashed, match=variant):
            wal.write_block(1, _blk(0x02))
        # The record the append was storing (the crash left the tier's
        # epoch and seqno where they were).
        record = wal._record_bytes(0, 1, 1, _blk(0x02))
        landed = {"before": 0, "torn": len(record) // 2,
                  "after": len(record)}[variant]
        assert wal.nvm.persisted(tail, len(record)) == (
            record[:landed] + bytes(len(record) - landed)
        )

    @pytest.mark.parametrize("variant", ["before", "torn", "after"])
    def test_a_crash_at_the_superblock_reset(self, wal, vld, variant):
        # The reset is its own persistence event: before or torn leaves
        # the old epoch (whose records all destaged, so replaying them
        # is idempotent), after leaves the new one.
        for i in range(4):
            wal.write_block(i, _blk(0x40 + i))
        FaultPlane(("nvm-superblock", 1), variant).install(wal.nvm)
        with pytest.raises(DeviceCrashed, match="NVM superblock write 1"):
            wal.destage_all()
        wal.nvm.faults = None
        wal.crash()
        outcome = wal.recover()
        assert outcome.replayed_records == (0 if variant == "after" else 4)
        for i in range(4):
            assert wal.read_block(i)[0] == _blk(0x40 + i)
        assert not vlfsck(vld).violations

    def test_double_crash_during_recovery_epoch(self, wal, vld):
        # Crash, recover, crash again immediately: the reset log must not
        # resurrect pre-reset records (epoch guard).
        wal.write_block(0, _blk(0x01))
        wal.crash()
        wal.recover()
        wal.write_block(0, _blk(0x02))
        wal.crash()
        outcome = wal.recover()
        assert outcome.replayed_records == 1
        data, _ = vld.read_block(0)
        assert data == _blk(0x02)


class TestOneOrdinal:
    def test_the_plane_counts_every_append_and_reset(self, disk):
        # Each record append and each superblock reset is one event, and
        # each physical write below the tier is one more.
        vld = VirtualLogDisk(disk)
        spec = NVM_SPECS["nvdimm"].with_overrides(capacity_bytes=96 << 10)
        wal = NVWal(vld, spec=spec)
        writes, stores = disk.counters.writes, wal.nvm.stats()["stores"]
        plane = FaultPlane().install(disk, wal.nvm)
        trims = 0
        for i in range(60):
            if i % 7 == 3:
                wal.trim(i % 16)
                trims += 1
            else:
                wal.write_block(i % 16, _blk(i))
        wal.destage_all()
        assert wal.pressure_destages > 0
        assert plane.counts == {
            "sector-run": disk.counters.writes - writes,
            "nvm-record": wal.absorbed_writes + trims,
            "nvm-superblock": wal.log_resets,
        }
        assert wal.nvm.stats()["stores"] - stores == (
            plane.counts["nvm-record"] + plane.counts["nvm-superblock"]
        )


class TestBackpressureCrash:
    def test_crash_after_pressure_destage(self, disk):
        vld = VirtualLogDisk(disk)
        spec = NVM_SPECS["nvdimm"].with_overrides(capacity_bytes=96 << 10)
        wal = NVWal(vld, spec=spec)
        for i in range(40):
            wal.write_block(i % 16, _blk(i & 0xFF))
        assert wal.pressure_destages > 0
        wal.crash()
        wal.recover()
        # The newest version of every block survives, wherever the crash
        # left it (destaged epoch or live NVM records).
        for block in range(16):
            newest = max(i for i in range(40) if i % 16 == block)
            data, _ = wal.read_block(block)
            assert data == _blk(newest & 0xFF)
        assert not vlfsck(vld).violations


class TestTwoTierPowerDownDepth4:
    """Orderly shutdown through both tiers at queue depth 4: power_down
    on the NVWal destages every dirty NVM block into the VLD (whose own
    power_down then barriers the depth-4 scheduler queue and writes the
    power record), so a post-crash recovery finds a clean NVM log and a
    fast power-record restart underneath."""

    def _stack(self):
        disk = Disk(ST19101, num_cylinders=2)
        vld = VirtualLogDisk(disk, queue_depth=4, sched="satf")
        return NVWal(vld), vld

    def test_power_down_drains_both_tiers(self):
        wal, vld = self._stack()
        payloads = {lba: _blk(0x30 + lba) for lba in range(10)}
        for lba, data in payloads.items():
            wal.write_block(lba, data)
        assert wal.dirty_blocks > 0  # acked in NVM, not yet destaged
        wal.power_down()
        assert wal.dirty_blocks == 0  # tier 1 drained into tier 2
        assert vld.scheduler.outstanding == 0  # tier 2 queue barriered
        wal.crash()
        outcome = wal.recover()
        # Nothing to replay from NVM; the VLD restarted from its record.
        assert outcome.replayed_records == 0
        assert outcome.used_power_down_record
        for lba, data in payloads.items():
            assert wal.read_block(lba)[0] == data
        assert not vlfsck(vld).violations

    def test_crash_instead_of_power_down_replays_from_nvm(self):
        """Same depth-4 stack, no orderly shutdown: the acked writes
        never left NVM, the VLD recovers by scan, and the NVM replay
        restores every acked block on top of it."""
        wal, vld = self._stack()
        payloads = {lba: _blk(0x50 + lba) for lba in range(10)}
        for lba, data in payloads.items():
            wal.write_block(lba, data)
        wal.crash()
        outcome = wal.recover()
        assert outcome.replayed_blocks == len(payloads)
        assert not outcome.used_power_down_record
        for lba, data in payloads.items():
            assert wal.read_block(lba)[0] == data
        assert not vlfsck(vld).violations


class TestOverWriteBackQueue:
    def test_destaged_writes_are_durable_before_the_log_is_truncated(self):
        """A depth-4 ``RegularDisk`` acknowledges a write when it is
        queued.  The tier may truncate its log only once the destaged
        blocks are on the media, or a crash drops the queue and the log
        that could have replayed it."""
        device = RegularDisk(Disk(ST19101), queue_depth=4, sched="satf")
        wal = NVWal(device)
        payloads = {
            lba: _blk(0x60 + i)
            for i, lba in enumerate((3, 11, 40, 41, 90, 300))
        }
        for lba, data in payloads.items():
            wal.write_block(lba, data)
        wal.destage_all()
        assert wal.log_resets == 1
        wal.crash()
        wal.recover()
        lost = [
            lba for lba, data in payloads.items()
            if wal.read_block(lba)[0] != data
        ]
        assert lost == []


class TestOverShardedVolume:
    def test_nvwal_over_three_shards_recovers(self):
        """The full composed stack -- NVWal -> volume -> VLDs -- survives
        a crash: the tier folds the volume's (already folded) outcome
        into its own instead of assuming one scalar beneath it."""
        volume, _, _ = build_sharded_volume(
            3, stripe_blocks=8, num_cylinders=6
        )
        wal = NVWal(volume, spec=NVM_SPECS["nvdimm"])
        assert wal.clock is volume.clock
        expected = {}
        for lba in range(40):  # five stripes: every shard holds data
            expected[lba] = _blk(lba + 1)
            wal.write_block(lba, expected[lba])
        wal.idle(1.0)  # destaged: these now live on the shards
        assert wal.dirty_blocks == 0
        for lba in range(30, 60):  # overwrites and new blocks, NVM-only
            expected[lba] = _blk(lba + 101)
            wal.write_block(lba, expected[lba])
        wal.trim(7, 1)
        expected[7] = bytes(4096)
        nvm_only = wal.dirty_blocks

        wal.crash()
        outcome = wal.recover()

        for lba, data in expected.items():
            assert wal.read_block(lba)[0] == data, lba
            assert volume.read_block(lba)[0] == data, lba
        assert volume_fsck(volume, deep=True).ok
        assert isinstance(outcome, RecoveryOutcome)
        assert outcome.replayed_records == 31
        assert outcome.replayed_blocks == nvm_only == 30
        assert outcome.replayed_trims == 1
        # The locate/traverse facts are what the three shards' own
        # outcomes fold to (any / sum), with the tier's cost on top.
        shards = outcome.inner.parts
        assert len(shards) == 3
        assert outcome.scanned is True and all(s.scanned for s in shards)
        assert outcome.records_read == sum(s.records_read for s in shards) > 0
        assert outcome.blocks_scanned == sum(s.blocks_scanned for s in shards)
        assert outcome.elapsed > outcome.inner.elapsed == pytest.approx(
            sum(s.elapsed for s in shards)
        )
