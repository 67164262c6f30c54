"""The device contract, checked once for every device and every stack.

``BlockDevice`` declares twelve members: the five I/O calls, ``idle``,
``trim``, ``flush``, the ``power_down`` / ``crash`` / ``recover``
lifecycle and ``clock``.  The conformance classes run the same checks
over each core device, each stacking of them, and each of those again
under the full interposer stack; the regression class pins the six
defects the undeclared (duck-typed) contract used to hide.
"""

import pytest

from repro.blockdev.interpose import (
    DeviceCrashed,
    FaultDevice,
    FaultPlan,
    MetricsDevice,
    TracingDevice,
)
from repro.blockdev.regular import RegularDisk
from repro.disk.disk import Disk
from repro.disk.specs import ST19101
from repro.harness.configs import build_sharded_volume
from repro.hosts.specs import SPARCSTATION_10
from repro.lfs.lfs import LFS
from repro.nvm import NVWal
from repro.sim.clock import SimClock
from repro.sim.stats import Breakdown
from repro.ufs.fsck import fsck
from repro.ufs.ufs import UFS
from repro.vlog.recovery import RecoveryOutcome
from repro.vlog.vld import VirtualLogDisk
from repro.volume import ShardedVolume, volume_fsck

BS = 4096


def _blk(tag: int) -> bytes:
    return bytes([tag % 251 + 1]) * BS


def _disk() -> Disk:
    return Disk(ST19101, num_cylinders=2)


def _volume(shards: int) -> ShardedVolume:
    return build_sharded_volume(shards, num_cylinders=2)[0]


#: name -> (builder, trimmed blocks read back as zeros once destaged).
#: ``RegularDisk`` keeps no mapping, so a trim releases nothing and the
#: old bytes stay readable.
STACKS = {
    "regular-d1-fifo": (lambda: RegularDisk(_disk()), False),
    "regular-d4-satf": (
        lambda: RegularDisk(_disk(), queue_depth=4, sched="satf"), False,
    ),
    "vld": (lambda: VirtualLogDisk(_disk()), True),
    "nvwal-vld": (lambda: NVWal(VirtualLogDisk(_disk())), True),
    "nvwal-regular": (lambda: NVWal(RegularDisk(_disk())), False),
    "volume-x1": (lambda: _volume(1), True),
    "volume-x3": (lambda: _volume(3), True),
    "nvwal-volume-x3": (lambda: NVWal(_volume(3)), True),
}


def _wrap(device):
    return TracingDevice(MetricsDevice(FaultDevice(device, FaultPlan())))


def _disk_clock(device) -> SimClock:
    """The clock of the raw disk(s) at the bottom of ``device``, found
    without the contract member under test."""
    while not isinstance(device, (RegularDisk, VirtualLogDisk)):
        device = (
            device.shards[0] if isinstance(device, ShardedVolume)
            else device.inner
        )
    return device.disk.clock


@pytest.fixture(params=sorted(STACKS))
def stack_name(request):
    return request.param


@pytest.fixture(params=["bare", "wrapped"])
def device(request, stack_name):
    built = STACKS[stack_name][0]()
    return _wrap(built) if request.param == "wrapped" else built


class TestConformance:
    def test_clock_is_the_disks_clock(self, device):
        assert device.clock is _disk_clock(device)

    def test_write_trim_read_back(self, device, stack_name):
        device.write_blocks(8, 3, _blk(1) + _blk(2) + _blk(3))
        device.idle(0.05)
        assert isinstance(device.trim(9), Breakdown)
        device.idle(0.05)  # a tier destages the trim to its backing store
        unmaps = STACKS[stack_name][1]
        assert device.read_block(9)[0] == (bytes(BS) if unmaps else _blk(2))
        assert device.read_blocks(8, 3)[0] == (
            _blk(1) + (bytes(BS) if unmaps else _blk(2)) + _blk(3)
        )
        with pytest.raises(ValueError):
            device.trim(device.num_blocks, 1)

    def test_lifecycle_keeps_every_acknowledged_block(self, device):
        expected = {}
        for i, lba in enumerate((0, 5, 6, 17, 40, 41, 42, 90)):
            expected[lba] = _blk(i)
            device.write_block(lba, expected[lba])
        device.write_partial(5, 512, b"\x7f" * 1024)
        expected[5] = expected[5][:512] + b"\x7f" * 1024 + expected[5][1536:]
        device.power_down()
        device.crash()
        outcome = device.recover()
        assert isinstance(outcome, RecoveryOutcome)
        for lba, data in expected.items():
            assert device.read_block(lba)[0] == data, lba

    @pytest.mark.parametrize("offset", [-512, -BS, BS - 512, BS])
    def test_partial_write_outside_the_block_is_refused(self, device, offset):
        """A byte range that starts before block 5 or ends past it is a
        ``ValueError``; neither block 5 nor a neighbour is written."""
        for lba in (4, 5, 6):
            device.write_block(lba, _blk(lba))
        with pytest.raises(ValueError):
            device.write_partial(5, offset, b"\x7f" * 1024)
        device.idle(0.05)
        assert device.read_blocks(4, 3)[0] == _blk(4) + _blk(5) + _blk(6)


def _script(device):
    """One pass over all twelve members; returns everything observable."""
    seen = []
    seen.append(device.write_block(3, _blk(3)))
    seen.append(device.write_blocks(10, 4, b"".join(_blk(i) for i in range(4))))
    seen.append(device.write_partial(11, 1024, b"\x55" * 512))
    seen.append(device.read_block(3))
    seen.append(device.read_blocks(9, 6))
    seen.append(device.trim(12, 2))
    device.idle(0.1)
    seen.append(device.read_blocks(10, 4))
    seen.append(device.write_block(20, _blk(20)))
    seen.append(device.flush())
    seen.append(device.power_down())
    device.crash()
    outcome = device.recover()
    seen.append((outcome.breakdown, outcome.scanned, outcome.records_read))
    seen.append(device.read_blocks(9, 6))
    seen.append(device.clock.now)
    return seen


class TestTransparency:
    def test_wrapped_stack_is_indistinguishable(self, stack_name):
        """Same bytes, same breakdowns, same final clock -- ``trim`` and
        the lifecycle included -- with three interposers in the path."""
        build = STACKS[stack_name][0]
        wrapped = _wrap(build())
        assert _script(wrapped) == _script(build())
        assert wrapped.block_size == BS
        assert wrapped.num_blocks == wrapped.inner.inner.inner.num_blocks


class TestRegressions:
    """Each fails at the commit before the contract was declared."""

    def test_tier_over_a_volume_runs_on_the_disks_clock(self):
        volume, _, disks = build_sharded_volume(3, num_cylinders=2)
        wal = NVWal(volume)
        wal.write_block(0, _blk(0))
        wal.idle(0.5)
        assert all(disk.clock.now == wal.clock.now for disk in disks)
        assert wal.clock is volume.clock is disks[0].clock
        assert wal.nvm.clock is disks[0].clock

    @pytest.mark.parametrize("fs_type", [UFS, LFS])
    @pytest.mark.parametrize("tiered", [False, True])
    def test_file_systems_mount_on_a_volume(self, fs_type, tiered):
        volume = _volume(3)
        device = NVWal(volume) if tiered else volume
        fs = fs_type(device, SPARCSTATION_10)
        assert fs.clock is volume.clock
        payload = bytes(range(256)) * 40
        fs.create("/f")
        fs.write("/f", 0, payload, sync=True)
        fs.drop_caches()
        assert fs.read("/f", 0, len(payload))[0] == payload
        fs.sync()
        if fs_type is UFS:
            assert fsck(fs).ok
        if tiered:
            device.destage_all()
        assert volume_fsck(volume, deep=True).ok

    def test_observer_stamps_over_a_volume_are_the_disks_clock(self):
        volume, _, disks = build_sharded_volume(3, num_cylinders=2)
        clock = disks[0].clock
        stack = TracingDevice(MetricsDevice(volume))
        stack.write_block(0, _blk(0))
        before = clock.now
        assert before > 0.0
        clock.advance(0.25)  # host time between two device ops
        stack.write_block(1, _blk(1))
        first, second = stack.events
        assert first.start == 0.0
        assert second.start == before + 0.25
        assert stack.inner.host_seconds == pytest.approx(0.25)

    def test_a_trim_is_an_operation_to_every_observer(self):
        vld = VirtualLogDisk(_disk())
        stack = TracingDevice(MetricsDevice(vld))
        metrics = stack.inner
        stack.write_block(3, _blk(3))
        events, host = stack.total_events, metrics.host_seconds
        cost = stack.trim(3)
        assert cost.total > 0.0  # the unmap is a log append on the media
        assert metrics.ops["trim"] == 1 and metrics.blocks["trim"] == 1
        assert stack.total_events == events + 1
        event = stack.events[-1]
        assert (event.op, event.lba, event.count) == ("trim", 3, 1)
        assert event.breakdown == cost
        stack.write_block(4, _blk(4))
        assert metrics.host_seconds == host  # device time, not host time

    def test_fault_layer_counts_and_refuses_trims(self):
        vld = VirtualLogDisk(_disk())
        faulty = FaultDevice(vld, FaultPlan(crash_after_ops=3))
        faulty.write_block(3, _blk(3))
        faulty.trim(7)
        assert faulty.ops_seen == 2  # the trim ticked the op counter
        with pytest.raises(DeviceCrashed):
            faulty.trim(7)  # ... so this, the third op, is the crash
        with pytest.raises(DeviceCrashed) as refused:
            faulty.trim(3)
        assert refused.value.op == "trim"
        assert vld.imap.get(3) is not None  # the mapping survived
        assert vld.read_block(3)[0] == _blk(3)

    def test_fault_layer_serves_again_after_recover(self):
        faulty = FaultDevice(
            VirtualLogDisk(_disk()), FaultPlan(crash_after_ops=2)
        )
        faulty.write_block(3, _blk(3))
        with pytest.raises(DeviceCrashed):
            faulty.write_block(4, _blk(4))
        faulty.crash()
        with pytest.raises(DeviceCrashed):
            faulty.read_block(3)  # still down until recovery runs
        faulty.recover()
        assert not faulty.crashed

    def test_slow_window_stretches_a_trim(self):
        vld = VirtualLogDisk(_disk())
        slow = FaultDevice(
            vld, FaultPlan(slow_factor=4.0, slow_after_ops=2)
        )
        slow.write_block(3, _blk(3))
        clock = vld.disk.clock
        before = clock.now
        cost = slow.trim(3)
        assert slow.ops_slowed == 1
        assert clock.now - before == pytest.approx(cost.total)
        assert cost.total == pytest.approx(
            4.0 * (cost.total - slow.slow_extra_seconds)
        )

    def test_crash_empties_a_regular_disks_queue(self):
        device = RegularDisk(_disk(), queue_depth=4)
        wal = NVWal(device)
        for lba in (3, 40, 90):
            device.write_block(lba, _blk(lba))
        assert device.scheduler.outstanding == 3
        wal.crash()
        assert device.scheduler.outstanding == 0

    def test_shards_on_different_clocks_are_refused(self):
        shards = [VirtualLogDisk(_disk()), VirtualLogDisk(_disk())]
        with pytest.raises(ValueError, match="one clock"):
            ShardedVolume(shards)

    def test_a_foreign_tier_clock_is_refused(self):
        vld = VirtualLogDisk(_disk())
        assert NVWal(vld, clock=vld.disk.clock).clock is vld.disk.clock
        with pytest.raises(ValueError, match="clock"):
            NVWal(vld, clock=SimClock())
