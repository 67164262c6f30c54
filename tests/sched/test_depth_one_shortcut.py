"""A depth-1 write onto an empty queue is serviced in
``DiskScheduler.write``'s own frame.  It must leave the request, the
scheduler and the disk exactly as the queue round trip it skips does:
``_enqueue``, then ``service_one`` picking the only pending request."""

import random

import pytest

from repro.disk.disk import Disk
from repro.disk.specs import ST19101
from repro.sched.scheduler import DiskScheduler


def _shortcut_write(sched, sector, count, data):
    return sched.write(sector, count, data)


def _queued_write(sched, sector, count, data):
    req = sched._enqueue("write", sector, count, data, True)
    assert sched.service_one() is req
    return req


REQUEST_FIELDS = (
    "op",
    "sector",
    "count",
    "data",
    "charge_scsi",
    "block_sectors",
    "seq",
    "arrival",
    "mark",
    "passes",
    "done",
    "failed",
    "result",
    "breakdown",
    "service_start",
    "completion",
    "completed",
)


def _history(write, policy):
    disk = Disk(ST19101, num_cylinders=4)
    sched = DiskScheduler(disk, policy)
    rng = random.Random(5)
    span = ST19101.sectors_per_track * ST19101.tracks_per_cylinder * 4 - 8
    out = []
    for i in range(80):
        sector = rng.randrange(span)
        count = rng.randrange(1, 9)
        if i % 4 == 3:
            # A read between writes: its own stamp moves seq and clock.
            out.append(("read", sched.read(sector, count)))
        if i % 7 == 6:
            disk.clock.advance(rng.random() * 1e-3)
        req = write(sched, sector, count, bytes([i % 251]) * (512 * count))
        out.append(
            tuple(getattr(req, name) for name in REQUEST_FIELDS)
            + (sched.max_outstanding, sched.serviced, disk.clock.now)
        )
        if i % 3 == 2:
            out.append(("claim", sched.take_breakdown()))
    hists = (sched.service_times, sched.response_times)
    out.append(
        (
            sched._seq,
            sched._picks,
            sched.serviced,
            sched.busy_seconds,
            sched.max_outstanding,
            [(h.buckets, h.count, h.sum) for h in hists],
            sched.take_breakdown(),
            disk.clock.now,
            disk.head_cylinder,
        )
    )
    return out


@pytest.mark.parametrize("policy", ["fifo", "scan", "satf"])
def test_shortcut_matches_enqueue_and_service(policy):
    assert _history(_shortcut_write, policy) == _history(
        _queued_write, policy
    )
