"""Recovery reads each map record once.

A scan recovery used to read every record twice: once in the scan, which
CRC-checks it, and again one sector at a time in the tree walk.  When the
tail's sector was transiently flaky, the second read could fail after
the first had succeeded, and recovery raised ``ValueError("block N does
not hold a map record")`` for a record the scan had just read.  The walk
now takes the scan's bytes, and a degraded walk rebuilds from the scan's
records instead of scanning again (DESIGN.md section 10).

The histories: a VLD on a 3-cylinder ST19101, 60 writes drawn from
``random.Random(seed)`` over 200 LBAs, a crash (behind an orderly
``power_down()`` or not), and the tail's sector failing 60 % of its
reads while ``recover()`` runs.
"""

import random
from collections import Counter

import pytest

from repro.blockdev.interpose import FaultPlane
from repro.disk.disk import Disk
from repro.disk.specs import ST19101
from repro.vlog.vld import VirtualLogDisk

BS = 4096

#: Seeds whose recovery raised for the tail the scan had just read:
#: without a power-down (5 of the 55 in the first 300 seeds) ...
RAISED_AFTER_SCAN = (7, 11, 18, 29, 30)
#: ... and with one, whose stale-tail fallback then scanned (5 of 13).
RAISED_AFTER_POWER_DOWN = (30, 31, 39, 49, 79)
#: Seeds whose scan could not read the tail's slot through its retries
#: (3 of 18): it used to settle for an older tail, and one block read
#: back old, until recovery began reading such a slot again.
SCAN_LOST_THE_TAIL = (4, 28, 45)


def _flaky_tail_recovery(seed, power_down):
    """Play the history; returns ``(vld, outcome, acked)``."""
    disk = Disk(ST19101, num_cylinders=3)
    vld = VirtualLogDisk(disk)
    rng = random.Random(seed)
    acked = {}
    for _ in range(60):
        lba, tag = rng.randrange(200), rng.randrange(1, 256)
        vld.write_block(lba, bytes([tag]) * BS)
        acked[lba] = tag
    tail_sector = vld.vlog.tail * vld.vlog.sectors_per_block
    if power_down:
        vld.power_down()
    vld.crash()
    FaultPlane(seed=seed, flaky_sectors={tail_sector: 0.6}).install(disk)
    outcome = vld.recover()
    disk.faults = None
    return vld, outcome, acked


def _lost(vld, acked):
    return sorted(
        lba
        for lba, tag in acked.items()
        if vld.read_block(lba)[0] != bytes([tag]) * BS
    )


@pytest.mark.parametrize(
    "seed,power_down",
    [(seed, False) for seed in RAISED_AFTER_SCAN]
    + [(seed, True) for seed in RAISED_AFTER_POWER_DOWN],
)
def test_a_flaky_tail_the_scan_read_recovers(seed, power_down):
    vld, outcome, acked = _flaky_tail_recovery(seed, power_down)
    assert outcome.scanned
    assert _lost(vld, acked) == []


@pytest.mark.parametrize("seed", SCAN_LOST_THE_TAIL)
def test_a_slot_the_scan_zero_filled_degrades_the_recovery(seed):
    _vld, outcome, _acked = _flaky_tail_recovery(seed, power_down=False)
    assert outcome.scanned and not outcome.reconstructed
    assert outcome.degraded


@pytest.mark.parametrize("seed", SCAN_LOST_THE_TAIL)
def test_a_tail_the_scan_could_not_read_is_not_lost(seed):
    # Recovery reads the slot the scan zero-filled again once the pass is
    # over, finds the youngest record there and walks from it; the slot
    # is live, so it is queued for the scrubber, not retired.
    vld, _outcome, acked = _flaky_tail_recovery(seed, power_down=False)
    assert _lost(vld, acked) == []
    tail_sector = vld.vlog.tail * vld.vlog.sectors_per_block
    assert tail_sector in vld.resilience.suspects
    assert tail_sector not in vld.resilience.quarantine


class _ReadLog(FaultPlane):
    """A fault plane that also notes the start and length of every read
    the disk services."""

    def __init__(self, **faults) -> None:
        super().__init__(**faults)
        self.reads = []

    def before_read(self, sector, count) -> None:
        self.reads.append((sector, count))
        super().before_read(sector, count)


def test_a_degraded_walk_after_a_scan_reads_each_track_once():
    # An interior record on a dead sector: the walk from the scan's tail
    # cannot read it and the recovery rebuilds from every record on the
    # disk -- the ones the scan already found.
    disk = Disk(ST19101, num_cylinders=3)
    vld = VirtualLogDisk(disk)
    vld.write_block(120, bytes([1]) * BS)  # chunk 1's only record ...
    interior = vld.vlog.tail
    for lba in range(9):  # ... stays interior
        vld.write_block(lba, bytes([lba + 2]) * BS)
    vld.crash()
    log = _ReadLog(
        bad_sectors={interior * vld.vlog.sectors_per_block}
    ).install(disk)
    outcome = vld.recover()
    assert outcome.scanned and outcome.degraded and outcome.reconstructed
    per_track = disk.geometry.sectors_per_track
    track_reads = Counter(
        sector // per_track for sector, count in log.reads if count == per_track
    )
    # The dead sector's track is read once per attempt the retry policy
    # allows.  A second scan would read every track twice.
    dead_track = interior * vld.vlog.sectors_per_block // per_track
    attempts = vld.resilience.policy.max_attempts
    assert track_reads == {
        track: attempts if track == dead_track else 1
        for track in range(disk.total_sectors // per_track)
    }
    for lba in range(9):
        assert vld.read_block(lba)[0] == bytes([lba + 2]) * BS
