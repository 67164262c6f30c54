"""A duration must be a non-negative number, and an idle grant a finite one.

NaN compares false with everything, so a guard written ``seconds < 0.0``
lets it through: ``RegularDisk.idle(nan)`` used to leave the clock at NaN
for every later write.  Every duration guard is ``not seconds >= 0.0``,
which refuses NaN too; an interval's is ``not end >= start``.  The idle
entry points -- ``IdleManager.grant``, ``RegularDisk.idle`` and
``VirtualLogDisk.idle`` -- also refuse infinity, before any queue
drains: ``VirtualLogDisk.idle(inf)`` used to move the clock to infinity.
A latency histogram refuses infinity (it has no bucket for it), and the
event engine refuses an infinite or NaN ``run(until=)`` horizon before
any event fires.  Both queued drivers refuse a non-finite think time,
and the multi-host driver a request larger than a disk, before anything
runs.
"""

import functools

import pytest

from repro.blockdev.regular import RegularDisk
from repro.disk.disk import Disk
from repro.disk.specs import ST19101
from repro.harness.runner import simulate_queued_workload
from repro.hosts.multihost import run_multihost
from repro.hosts.specs import SPARCSTATION_10
from repro.nvm import NVWal
from repro.sched.idle import IdleManager
from repro.sim.clock import SimClock
from repro.sim.engine import EventEngine, IntervalRecorder, measure
from repro.sim.metrics import LatencyHistogram
from repro.sim.stats import Breakdown
from repro.vlfs.vlfs import VLFS
from repro.vlog.reorganizer import ReadReorganizer
from repro.vlog.vld import VirtualLogDisk
from tests.sim.scheduling import at, pending

NAN = float("nan")
INF = float("inf")


def _disk():
    return Disk(ST19101, num_cylinders=4)


def _vld():
    return VirtualLogDisk(_disk())


def _queued_workload(think_seconds):
    return simulate_queued_workload(
        ST19101, requests=1, think_seconds=think_seconds
    )


#: Every duration guard in ``src/`` other than the idle entry points
#: (tested below), as a one-argument callable.
GUARDS = {
    "SimClock.advance": lambda: SimClock().advance,
    "Breakdown.charge": lambda: functools.partial(Breakdown().charge, "other"),
    "LatencyHistogram.record": lambda: LatencyHistogram().record,
    "IntervalRecorder.note(end=)": lambda: functools.partial(
        IntervalRecorder().note, "service", "d", 0.0
    ),
    "simulate_queued_workload(think_seconds=)": lambda: _queued_workload,
    "FreeSpaceCompactor.run_for": lambda: _vld().compactor.run_for,
    "Scrubber.run_for": lambda: _vld().resilience.scrubber.run_for,
    "ReadReorganizer.run_for": lambda: ReadReorganizer(_vld()).run_for,
    "VLFSCompactor.run_for": lambda: VLFS(
        Disk(ST19101), SPARCSTATION_10
    ).compactor.run_for,
}


@pytest.mark.parametrize("guard", sorted(GUARDS))
def test_nan_is_refused(guard):
    with pytest.raises(ValueError):
        GUARDS[guard]()(NAN)


@pytest.mark.parametrize("seconds", [NAN, INF, -1.0])
def test_grant_refuses_before_any_worker_runs(seconds):
    clock = SimClock()
    mgr = IdleManager(clock)
    ran = []
    mgr.register("urgent", ran.append, needs_time=False)
    with pytest.raises(ValueError):
        mgr.grant(seconds)
    assert ran == [] and clock.now == 0.0 and mgr.grants == 0


@pytest.mark.parametrize("seconds", [NAN, INF, -1.0])
def test_regular_disk_refuses_before_draining_its_queue(seconds):
    device = RegularDisk(_disk(), queue_depth=4)
    device.write_block(3, b"q" * 4096)
    assert device.scheduler.outstanding == 1
    before = device.clock.now
    with pytest.raises(ValueError):
        device.idle(seconds)
    assert device.scheduler.outstanding == 1
    assert device.clock.now == before
    device.idle(0.01)
    assert device.scheduler.outstanding == 0


@pytest.mark.parametrize("seconds", [NAN, INF, -1.0])
def test_vld_refuses_and_its_clock_stays_finite(seconds):
    vld = _vld()
    vld.write_block(3, b"v" * 4096)
    before = vld.clock.now
    with pytest.raises(ValueError):
        vld.idle(seconds)
    assert vld.clock.now == before
    assert vld.write_block(4, b"w" * 4096).total > 0.0
    assert before < vld.clock.now < INF


@pytest.mark.parametrize("seconds", [NAN, INF])
def test_nvwal_refuses_before_destaging(seconds):
    wal = NVWal(_vld())
    wal.write_block(3, b"n" * 4096)
    before = wal.clock.now
    with pytest.raises(ValueError):
        wal.idle(seconds)
    assert wal.dirty_blocks == 1
    assert wal.clock.now == before


def test_a_refused_interval_leaves_the_totals_finite():
    """The interval guard is ``not end >= start``: ``end < start`` let a
    NaN end through, and the family's total became NaN."""
    intervals = IntervalRecorder()
    intervals.note("service", "d", 0.0, 1.0)
    with pytest.raises(ValueError):
        intervals.note("service", "d", 0.0, NAN)
    with pytest.raises(ValueError):
        intervals.note("service", "d", NAN, 2.0)
    assert measure(intervals.merged_by_key("service")["d"]) == 1.0


@pytest.mark.parametrize("seconds", [INF, NAN, -1.0])
def test_histogram_refuses_a_latency_it_has_no_bucket_for(seconds):
    """``frexp(inf)`` has exponent 0, so infinity used to land in the
    sub-microsecond bucket and read as a 1 us p50..p999."""
    histogram = LatencyHistogram()
    histogram.record(0.004)
    with pytest.raises(ValueError):
        histogram.record(seconds)
    assert histogram.buckets == {11: 1}
    assert histogram.count == 1 and histogram.sum == 0.004


@pytest.mark.parametrize("until", [INF, NAN, -INF])
def test_engine_refuses_a_non_finite_horizon_before_firing(until):
    """``run(until=inf)`` drained the heap and left the clock at
    infinity; ``run(until=nan)`` ignored its horizon (``time > nan`` is
    never true) and fired everything."""
    engine = EventEngine()
    fired = []
    at(engine, 0.5, lambda: fired.append(0.5))
    at(engine, 2.0, lambda: fired.append(2.0))
    with pytest.raises(ValueError, match="finite"):
        engine.run(until=until)
    assert fired == [] and pending(engine) == 2 and engine.now == 0.0
    assert engine.run(until=1.0) == 1 and engine.now == 1.0
    assert engine.run() == 1 and fired == [0.5, 2.0]


@pytest.mark.parametrize(
    "think_seconds", [NAN, INF, -1.0, [0.0, NAN], [INF, 0.0]]
)
def test_multihost_refuses_a_non_finite_think_time(think_seconds, monkeypatch):
    """A NaN think time used to run as no think time at all (the guard
    was ``value < 0.0``), and an infinite one failed only after the run,
    in the report's histograms.  Refused before the engine exists."""
    monkeypatch.setattr("repro.hosts.multihost.EventEngine", None)
    with pytest.raises(ValueError, match="think_seconds"):
        run_multihost(ST19101, hosts=2, requests_per_host=2,
                      think_seconds=think_seconds)


@pytest.mark.parametrize("think_seconds", [NAN, INF, -1.0])
def test_queued_workload_refuses_a_non_finite_think_time(think_seconds):
    with pytest.raises(ValueError, match="think_seconds"):
        _queued_workload(think_seconds)


def test_multihost_refuses_a_request_larger_than_a_disk(monkeypatch):
    """``randrange(0)`` used to raise "empty range" from deep inside the
    target stream."""
    sectors = Disk(ST19101, store_data=False).geometry.total_sectors
    monkeypatch.setattr("repro.hosts.multihost.EventEngine", None)
    with pytest.raises(ValueError, match="request_sectors"):
        run_multihost(ST19101, hosts=1, requests_per_host=1,
                      request_sectors=sectors + 1)
