"""The queued-workload driver's host/disk overlap, the idle-time
dispatcher, and the headline queue-depth acceptance property (SATF beats
FIFO once the disk can reorder)."""

import pytest

from repro.blockdev.regular import RegularDisk
from repro.disk.disk import Disk
from repro.disk.specs import ST19101
from repro.harness.runner import simulate_queued_workload
from repro.hosts.specs import SPARCSTATION_10
from repro.lfs.lfs import LFS
from repro.nvm import NVWal
from repro.sched.idle import IdleManager
from repro.sim.clock import SimClock
from repro.sim.stats import Breakdown
from repro.ufs.ufs import UFS
from repro.vlfs.vlfs import VLFS
from repro.vlog.vld import VirtualLogDisk
from tests._media import op_counts


def _payload(tag: int, size: int = 4096) -> bytes:
    return bytes([tag % 251]) * size


def _queued(**kwargs):
    """``simulate_queued_workload`` on the Seagate, with the busy seconds
    its mean service time implies."""
    kwargs.setdefault("requests", 20)
    result = simulate_queued_workload(ST19101, **kwargs)
    busy = result["mean_service_ms"] * kwargs["requests"] / 1e3
    return result, busy


class TestHostPipeline:
    """The queued-workload driver's think step: the host thinks before
    each submission, on the clock while the queue is empty, hidden
    behind queued service while it is not."""

    def test_think_advances_clock_when_queue_empty(self):
        # Depth 1 services every submit synchronously: the queue is empty
        # at every think, so each one is on the clock.
        result, busy = _queued(queue_depth=1, think_seconds=0.002)
        assert result["elapsed_seconds"] - busy == pytest.approx(20 * 0.002)

    def test_think_hidden_while_requests_outstanding(self):
        # Depth 4: after the first submission the queue never empties
        # until the drain, so only the first think is on the clock.
        result, busy = _queued(queue_depth=4, think_seconds=0.002)
        assert result["max_outstanding"] == 4.0
        assert result["elapsed_seconds"] - busy == pytest.approx(0.002)

    def test_negative_think_rejected(self):
        with pytest.raises(ValueError):
            simulate_queued_workload(ST19101, think_seconds=-1.0)

    def test_finish_drains_everything(self):
        # Five requests never fill a depth-8 queue: all five wait for the
        # drain at the end of the run, which services every one of them.
        result, busy = _queued(queue_depth=8, requests=5, think_seconds=0.0)
        assert result["max_outstanding"] == 5.0
        assert result["elapsed_seconds"] == pytest.approx(busy)
        assert busy > 0.0


class TestIdleManager:
    def test_workers_run_in_registration_order(self):
        clock = SimClock()
        mgr = IdleManager(clock)
        ran = []
        mgr.register("a", lambda r: ran.append(("a", r)))
        mgr.register("b", lambda r: ran.append(("b", r)))
        mgr.grant(1.5)
        assert [name for name, _ in ran] == ["a", "b"]
        assert ran[0][1] == pytest.approx(1.5)
        assert clock.now == pytest.approx(1.5)

    def test_gate_skips_worker(self):
        # A worker with nothing to do returns None: it adds nothing to the
        # grant's total and leaves the next worker the whole budget.
        clock = SimClock()
        mgr = IdleManager(clock)
        ran = []

        def busy(remaining):
            ran.append(("busy", remaining))
            clock.advance(0.25)
            cost = Breakdown()
            cost.charge("other", 0.25)
            return cost

        mgr.register("nothing-to-do", lambda r: ran.append(("idle", r)))
        mgr.register("busy", busy)
        total = mgr.grant(1.0)
        assert ran == [("idle", 1.0), ("busy", 1.0)]
        assert total.as_dict() == {**Breakdown().as_dict(), "other": 0.25}
        assert clock.now == 1.0

    def test_needs_time_false_runs_on_zero_budget(self):
        mgr = IdleManager(SimClock())
        ran = []
        mgr.register("urgent", lambda r: ran.append(r), needs_time=False)
        mgr.register("lazy", lambda r: ran.append(("lazy", r)))
        mgr.grant(0.0)
        assert ran == [0.0]  # urgent ran, lazy skipped

    def test_breakdowns_accumulate(self):
        mgr = IdleManager(SimClock())

        def worker(remaining):
            b = Breakdown()
            b.charge("other", 0.25)
            return b

        mgr.register("w1", worker)
        mgr.register("w2", worker)
        total = mgr.grant(1.0)
        assert total.other == pytest.approx(0.5)
        assert mgr.grants == 1
        assert mgr.granted_seconds == pytest.approx(1.0)

    def test_clock_reaches_deadline_even_if_workers_use_nothing(self):
        clock = SimClock()
        mgr = IdleManager(clock)
        mgr.register("noop", lambda r: None)
        mgr.grant(2.0)
        assert clock.now == pytest.approx(2.0)

    def test_negative_grant_rejected(self):
        with pytest.raises(ValueError):
            IdleManager(SimClock()).grant(-0.1)


def _worker(owner, name):
    return next(w for w in owner.idle_manager.workers if w.name == name)


def _small_disk():
    return Disk(ST19101, num_cylinders=4)


#: Every idle-manager owner, as a fresh build.
_OWNERS = {
    "ufs": (lambda: UFS(RegularDisk(_small_disk()), SPARCSTATION_10), ["device"]),
    "lfs": (
        lambda: LFS(RegularDisk(Disk(ST19101)), SPARCSTATION_10),
        ["flush", "clean", "device"],
    ),
    "vlfs": (lambda: VLFS(Disk(ST19101), SPARCSTATION_10), ["flush", "compact"]),
    "vld": (lambda: VirtualLogDisk(_small_disk()), ["scrub", "compact"]),
    "nvwal": (
        lambda: NVWal(VirtualLogDisk(_small_disk())), ["nvm-destage", "backing"]
    ),
}


class TestIdleWorkers:
    """Each owner builds and registers its workers in its constructor,
    and each worker checks its own condition: with nothing to do it
    returns ``None`` and touches no media.  The VLD's two are covered
    where the machinery lives, in ``tests/vlog/test_compactor.py``
    (``TestDeviceIdleHook::test_idle_with_compaction_disabled``) and
    ``tests/vlog/test_resilience.py``
    (``TestScrubber::test_idle_without_suspects_never_pays_for_scrubbing``).
    """

    @pytest.mark.parametrize("owner", sorted(_OWNERS))
    def test_workers_are_registered_at_construction(self, owner):
        build, names = _OWNERS[owner]
        built = vars(build())  # instance state, not a builder run on access
        assert [w.name for w in built["idle_manager"].workers] == names
        if owner == "vlfs":
            assert built["compactor"].blocks_moved == 0

    @pytest.mark.parametrize("owner", ["lfs", "vlfs"])
    def test_flush_with_nothing_dirty_does_no_media_work(self, owner):
        fs = _OWNERS[owner][0]()
        fs.create("/f")
        fs.write("/f", 0, b"x" * 4096)
        fs.sync()
        disk = fs.device.disk
        before = (op_counts(disk), fs.clock.now)
        assert _worker(fs, "flush").run(1.0) is None
        assert (op_counts(disk), fs.clock.now) == before
        # The same worker does flush once something is dirty.
        fs.write("/f", 0, b"y" * 4096)
        assert _worker(fs, "flush").run(1.0) is not None
        assert disk.counters.writes > before[0]["writes"]

    def test_destage_with_nothing_dirty_does_no_media_work(self):
        wal = _OWNERS["nvwal"][0]()
        disk = wal.inner.disk
        before = (op_counts(disk), wal.nvm.stores, wal.nvm.flushes)
        assert _worker(wal, "nvm-destage").run(1.0) is None
        assert (op_counts(disk), wal.nvm.stores, wal.nvm.flushes) == before
        assert wal.log_resets == 0
        wal.write_block(5, b"z" * 4096)
        assert _worker(wal, "nvm-destage").run(1.0) is not None
        assert wal.dirty_blocks == 0


class TestQueueDepthAcceptance:
    """The headline property: at depth >= 4 on the random-update
    workload, SATF beats FIFO mean service time."""

    def test_satf_beats_fifo_at_depth_four(self):
        fifo = simulate_queued_workload(
            ST19101, queue_depth=4, policy="fifo", requests=200
        )
        satf = simulate_queued_workload(
            ST19101, queue_depth=4, policy="satf", requests=200
        )
        assert satf["mean_service_ms"] < fifo["mean_service_ms"]
        assert satf["elapsed_seconds"] < fifo["elapsed_seconds"]

    def test_depth_one_identical_across_policies(self):
        runs = [
            simulate_queued_workload(
                ST19101, queue_depth=1, policy=policy, requests=100
            )
            for policy in ("fifo", "scan", "satf")
        ]
        assert runs[0] == runs[1] == runs[2]

    def test_unknown_workload_rejected(self):
        with pytest.raises(ValueError, match="unknown workload"):
            simulate_queued_workload(ST19101, workload="backwards")


class TestVLDQueuedConsistency:
    """Crash consistency survives a deeper queue: the commit barrier
    drains data writes before each map-chunk append, so everything a
    completed write_blocks() call covered recovers intact."""

    @pytest.mark.parametrize("sched", ["fifo", "satf"])
    def test_crash_recover_after_queued_writes(self, sched):
        disk = Disk(ST19101, num_cylinders=2)
        vld = VirtualLogDisk(disk, queue_depth=4, sched=sched)
        for lba in range(40):
            vld.write_block(lba, _payload(lba))
        # Overwrite a few, multi-block runs included.
        vld.write_blocks(8, 4, b"".join(_payload(100 + i) for i in range(4)))
        vld.crash()
        outcome = vld.recover()
        assert not outcome.degraded
        for lba in range(40):
            expected = _payload(100 + lba - 8) if 8 <= lba < 12 else _payload(lba)
            assert vld.read_block(lba)[0] == expected
        vld.vlog.check_invariants()

    def test_idle_signal_drains_queue_before_compaction(self):
        disk = Disk(ST19101, num_cylinders=2)
        vld = VirtualLogDisk(disk, queue_depth=4)
        for lba in range(16):
            vld.write_block(lba, _payload(lba))
        assert vld.scheduler.outstanding == 0  # commit barrier drained
        vld.idle(0.05)
        assert vld.scheduler.outstanding == 0
