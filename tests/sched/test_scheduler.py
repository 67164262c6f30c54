"""The request scheduler: policies, starvation bound, and the depth-1
byte-identity guarantee the figure pins rely on."""

import random

import pytest

from repro.blockdev.interpose import FaultPlane
from repro.blockdev.regular import RegularDisk
from repro.disk.disk import Disk
from repro.disk.specs import ST19101
from repro.sched.policies import (
    ElevatorPolicy,
    FIFOPolicy,
    SATFPolicy,
    make_policy,
)
from repro.sched.scheduler import DiskScheduler
from repro.sim.engine import EventEngine, Process
from repro.vlog.vld import VirtualLogDisk


def _payload(tag: int, size: int = 4096) -> bytes:
    return bytes([tag % 251]) * size


class TestConstruction:
    def test_policy_by_name_and_instance(self):
        disk = Disk(ST19101, num_cylinders=1, store_data=False)
        assert isinstance(
            DiskScheduler(disk, "satf").policy, SATFPolicy
        )
        assert isinstance(
            DiskScheduler(disk, ElevatorPolicy()).policy, ElevatorPolicy
        )

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="unknown scheduling policy"):
            make_policy("lifo")
        with pytest.raises(ValueError, match="unknown scheduling policy"):
            make_policy("elevator")

    def test_invalid_depth_and_bound_rejected(self):
        disk = Disk(ST19101, num_cylinders=1, store_data=False)
        with pytest.raises(ValueError):
            DiskScheduler(disk, queue_depth=0)
        with pytest.raises(ValueError):
            DiskScheduler(disk, starvation_bound=0)


class TestDepthOneIdentity:
    """At queue_depth=1 every policy issues the identical disk call
    sequence the unscheduled seed code made directly."""

    @pytest.mark.parametrize("policy", ["fifo", "scan", "satf"])
    def test_raw_scheduler_matches_direct_disk(self, policy):
        rng = random.Random(11)
        ops = [
            (rng.randrange(ST19101.sectors_per_track * 4), rng.randrange(1, 9))
            for _ in range(120)
        ]
        direct = Disk(ST19101, num_cylinders=2, store_data=False)
        queued = Disk(ST19101, num_cylinders=2, store_data=False)
        scheduler = DiskScheduler(queued, policy, queue_depth=1)
        for i, (sector, count) in enumerate(ops):
            if i % 4 == 3:
                d1 = direct.read(sector, count)
                d2 = scheduler.read(sector, count)
                assert d1[1].as_dict() == d2[1].as_dict()
            else:
                b1 = direct.write(sector, count)
                scheduler.write(sector, count)
                b2 = scheduler.take_breakdown()
                assert b1.as_dict() == b2.as_dict()
            assert direct.clock.now == queued.clock.now
        assert scheduler.max_outstanding == 1
        assert scheduler.serviced == len(ops)

    @staticmethod
    def _drive_vld(queue_depth: int, sched: str):
        disk = Disk(ST19101, num_cylinders=2)
        vld = VirtualLogDisk(disk, queue_depth=queue_depth, sched=sched)
        rng = random.Random(7)
        total = 0.0
        reads = []
        for _ in range(60):
            action = rng.random()
            lba = rng.randrange(64)
            if action < 0.55:
                total += vld.write_block(lba, _payload(lba)).total
            elif action < 0.8:
                data, cost = vld.read_block(lba)
                reads.append(data)
                total += cost.total
            elif action < 0.9:
                total += vld.trim(lba).total
            else:
                vld.idle(0.05)
        vld.power_down()
        vld.crash()
        outcome = vld.recover()
        total += outcome.breakdown.total
        return disk.clock.now, total, reads, list(vld.imap.items())

    @pytest.mark.parametrize("sched", ["scan", "satf"])
    def test_vld_depth_one_identical_across_policies(self, sched):
        baseline = self._drive_vld(1, "fifo")
        other = self._drive_vld(1, sched)
        assert other[0] == baseline[0]  # simulated clock, bit-for-bit
        assert other[1] == baseline[1]  # summed breakdowns
        assert other[2] == baseline[2]  # every byte read
        assert other[3] == baseline[3]  # final mapping


class TestPolicies:
    def test_fifo_services_in_arrival_order(self):
        disk = Disk(ST19101, num_cylinders=4, store_data=False)
        scheduler = DiskScheduler(disk, "fifo", queue_depth=8)
        per_cyl = disk.geometry.sectors_per_cylinder
        reqs = [scheduler.write(c * per_cyl) for c in (3, 0, 2, 1)]
        scheduler.drain()
        order = sorted(reqs, key=lambda r: r.completion)
        assert [r.seq for r in order] == [0, 1, 2, 3]

    def test_elevator_sweeps_ascending_then_reverses(self):
        disk = Disk(ST19101, num_cylinders=8, store_data=False)
        scheduler = DiskScheduler(
            disk, "scan", queue_depth=8, starvation_bound=100
        )
        per_cyl = disk.geometry.sectors_per_cylinder
        reqs = {c: scheduler.write(c * per_cyl) for c in (5, 1, 3, 7)}
        scheduler.drain()
        # Head starts at cylinder 0 sweeping up: 1, 3, 5, 7.
        order = sorted(reqs, key=lambda c: reqs[c].completion)
        assert order == [1, 3, 5, 7]

    def test_satf_prefers_cheap_rotational_target(self):
        disk = Disk(ST19101, num_cylinders=1, store_data=False)
        scheduler = DiskScheduler(
            disk, "satf", queue_depth=8, starvation_bound=100
        )
        # Same track: one sector just behind the head (a near-full
        # revolution away), one comfortably ahead.  FIFO would service
        # submission order; SATF takes the rotationally-ahead sector.
        n = disk.geometry.sectors_per_track
        slot = int(disk.mechanics.rotational_slot(disk.clock.now))
        behind = scheduler.write((slot - 2) % n)
        ahead = scheduler.write((slot + n // 4) % n)
        scheduler.drain()
        assert ahead.completion < behind.completion

    def test_fifo_policy_instance_is_stateless(self):
        assert FIFOPolicy().pick([1, 2, 3], None) == 1


class TestStarvationBound:
    def test_passed_over_request_bounded(self):
        disk = Disk(ST19101, num_cylinders=8, store_data=False)
        bound = 5
        scheduler = DiskScheduler(
            disk, "satf", queue_depth=4, starvation_bound=bound
        )
        per_cyl = disk.geometry.sectors_per_cylinder
        # One distant victim, then a hostile stream of near requests that
        # SATF would always prefer.
        victim = scheduler.write(7 * per_cyl)
        serviced = []
        for i in range(40):
            serviced.append(scheduler.write((i * 8) % per_cyl))
        scheduler.drain()
        assert victim.done
        assert victim.passes <= bound
        assert all(r.passes <= bound for r in serviced)
        # The bound actually bit: the victim was passed over at least once.
        assert victim.passes > 0

    def test_every_serviced_request_within_bound_under_all_policies(self):
        rng = random.Random(3)
        for policy in ("fifo", "scan", "satf"):
            disk = Disk(ST19101, num_cylinders=8, store_data=False)
            scheduler = DiskScheduler(
                disk, policy, queue_depth=8, starvation_bound=6
            )
            reqs = []
            for _ in range(100):
                sector = rng.randrange(disk.total_sectors - 8)
                reqs.append(scheduler.write(sector, 1 + rng.randrange(8)))
            scheduler.drain()
            assert all(r.done for r in reqs)
            assert max(r.passes for r in reqs) <= 6


class TestQueueMechanics:
    def test_queue_builds_to_depth_then_services(self):
        disk = Disk(ST19101, num_cylinders=2, store_data=False)
        scheduler = DiskScheduler(disk, "fifo", queue_depth=4)
        for i in range(3):
            scheduler.write(i * 8)
        assert scheduler.outstanding == 3
        assert scheduler.serviced == 0
        scheduler.write(3 * 8)  # reaches depth: one service fires
        assert scheduler.outstanding == 3
        assert scheduler.serviced == 1
        breakdown = scheduler.drain()
        assert scheduler.outstanding == 0
        assert scheduler.serviced == 4
        assert breakdown.total > 0.0

    def test_read_waits_for_its_own_completion(self):
        disk = Disk(ST19101, num_cylinders=2)
        scheduler = DiskScheduler(disk, "fifo", queue_depth=4)
        payload = bytes(512)
        scheduler.write(40, 1, payload)
        data, breakdown = scheduler.read(40, 1)
        assert data == payload
        assert scheduler.outstanding == 0  # FIFO drained the write first
        assert breakdown.total > 0.0

    def test_discard_pending_drops_unserviced_writes(self):
        disk = Disk(ST19101, num_cylinders=2, store_data=False)
        scheduler = DiskScheduler(disk, "fifo", queue_depth=8)
        before = disk.clock.now
        for i in range(5):
            scheduler.write(i * 8)
        dropped = scheduler.discard_pending()
        assert len(dropped) == 5
        assert scheduler.outstanding == 0
        assert disk.clock.now == before  # nothing reached the media

    def test_service_one_with_empty_queue_raises(self):
        disk = Disk(ST19101, num_cylinders=1, store_data=False)
        with pytest.raises(RuntimeError):
            DiskScheduler(disk).service_one()

    def test_histograms_record_service_and_response(self):
        disk = Disk(ST19101, num_cylinders=2, store_data=False)
        scheduler = DiskScheduler(disk, "fifo", queue_depth=4)
        for i in range(8):
            scheduler.write(i * 64)
        scheduler.drain()
        assert scheduler.service_times.count == 8
        assert scheduler.response_times.count == 8
        pct = scheduler.service_times.percentiles()
        assert 0.0 < pct["p50"] <= pct["p95"] <= pct["p99"]
        # Queued requests wait: response >= service on average.
        assert scheduler.response_times.mean() >= scheduler.service_times.mean()


class TestRegularDiskQueue:
    def test_depth_four_overlaps_and_idle_drains(self):
        disk = Disk(ST19101, num_cylinders=2)
        device = RegularDisk(disk, queue_depth=4, sched="satf")
        for lba in range(6):
            device.write_block(lba * 16, _payload(lba))
        assert device.scheduler.outstanding == 3  # steady state: depth-1
        device.idle(0.01)
        assert device.scheduler.outstanding == 0

    def test_read_block_flushes_queued_write_of_same_block(self):
        disk = Disk(ST19101, num_cylinders=2)
        device = RegularDisk(disk, queue_depth=4)
        device.write_block(5, _payload(9))
        assert device.scheduler.outstanding == 1
        data, _ = device.read_block(5)
        assert data == _payload(9)  # FIFO services the write first


class TestSlowWindow:
    """A limping disk under a raw scheduler: a fault plane's fail-slow
    window on the medium (multihost's shard_slow)."""

    def build(self, **window):
        disk = Disk(ST19101, num_cylinders=2, store_data=False)
        plane = FaultPlane(**window).install(disk)
        return disk, plane, DiskScheduler(disk, "fifo")

    def test_validation(self):
        for factor in (0.5, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="factor"):
                FaultPlane(slow_factor=factor)
        with pytest.raises(ValueError, match="after_ops"):
            FaultPlane(slow_factor=2.0, slow_after_ops=-1)
        with pytest.raises(ValueError, match="duration"):
            FaultPlane(slow_factor=2.0, slow_duration_ops=0)

    def test_only_window_services_are_stretched(self):
        disk, plane, scheduler = self.build(
            slow_factor=4.0, slow_after_ops=2, slow_duration_ops=3
        )
        # Writes and reads alternate; services 3, 4, 5 fall in the
        # window, so read 4 is stretched and reads 2 and 6 are not.
        stretched = []
        for i in range(4):
            req = scheduler.write(i * 16)
            stretched.append(
                req.completion - req.service_start
                > req.breakdown.total * 1.5
            )
            start = disk.clock.now
            _, breakdown = scheduler.read(i * 16 + 4000)
            stretched.append(disk.clock.now - start > breakdown.total * 1.5)
        assert stretched == [False, False, True, True, True, False, False, False]
        assert plane.services == 8
        assert plane.ops_slowed == 3
        assert plane.slow_extra_seconds > 0.0
        assert plane.slow_span is not None
        start, end = plane.slow_span
        assert start < end

    def test_surplus_lands_on_the_disk_clock(self):
        disk_a, _, plain = self.build()
        disk_b, plane, slowed = self.build(slow_factor=5.0)
        for i in range(4):
            plain.write(i * 16)
            last = slowed.write(i * 16)
        plain.drain()
        slowed.drain()
        # The slowed disk genuinely ran longer, and every completion
        # stamp includes its surplus (the last one IS the final clock),
        # while the disk's own busy time keeps the mechanics alone.
        assert disk_b.clock.now > disk_a.clock.now
        assert plane.slow_extra_seconds > 0.0
        assert last.completion == disk_b.clock.now
        assert disk_b.counters.busy_time + plane.slow_extra_seconds == (
            pytest.approx(disk_b.clock.now)
        )

    def test_completion_times_cover_every_service(self):
        _, _, scheduler = self.build()
        requests = [scheduler.write(i * 16) for i in range(5)]
        scheduler.drain()
        completions = [req.completion for req in requests]
        assert all(req.done for req in requests)
        assert completions == sorted(completions)
        assert scheduler.serviced == 5

    def test_no_window_means_no_slow_state(self):
        _, plane, scheduler = self.build()
        for i in range(4):
            scheduler.write(i * 16)
        scheduler.drain()
        assert plane.services == 4
        assert plane.ops_slowed == 0
        assert plane.slow_extra_seconds == 0.0
        assert plane.slow_span is None


class TestEngineMode:
    def _attached(self):
        engine = EventEngine()
        disk = Disk(ST19101, num_cylinders=2, store_data=False)
        scheduler = DiskScheduler(disk)
        process = scheduler.attach_engine(engine, name="disk0")
        return engine, scheduler, process

    def test_attach_returns_a_process_that_ends_when_closed(self):
        engine, scheduler, process = self._attached()
        assert isinstance(process, Process)

        def host():
            req = scheduler.submit("write", 0, 8)
            yield req.completed
            scheduler.close()

        engine.spawn(host(), name="host")
        engine.run()
        assert process.done and scheduler.serviced == 1
        assert scheduler.outstanding == 0

    def test_submit_after_close_is_refused(self):
        """A closed scheduler's disk process ends once its queue drains,
        so a later submission would wait forever: the host used to stay
        blocked with the request queued and nothing raised."""
        engine, scheduler, process = self._attached()
        seen = []

        def host():
            seen.append(scheduler.submit("write", 0, 8))
            scheduler.close()
            yield 0.001
            seen.append(scheduler.submit("write", 64, 8))

        engine.spawn(host(), name="host")
        with pytest.raises(RuntimeError, match="after close"):
            engine.run()
        assert len(seen) == 1 and scheduler.outstanding == 0
        engine.run()  # the first request's service completes
        assert seen[0].done and process.done

    def test_submit_requires_an_engine(self):
        disk = Disk(ST19101, num_cylinders=2, store_data=False)
        with pytest.raises(RuntimeError, match="attach_engine"):
            DiskScheduler(disk).submit("write", 0, 8)
