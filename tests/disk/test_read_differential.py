"""``Disk.read`` against the ``_service_read_chunk`` composition it
replaced (``reference_read.py``).

Two disks run the same seeded mix of reads -- the same sector again,
elsewhere on the track just read, below it, on another track, across a
track boundary -- interleaved with writes that invalidate the buffer and
clock gaps that move the platter.  After every read both must return the
same bytes, the same four ``Breakdown`` components bit for bit, and be in
the same state: clock, head, track-buffer segment, hit and miss counts,
disk counters.  Every read-ahead policy, with and without the command
overhead, over a disk that stores data and one that does not.
"""

from __future__ import annotations

import random

import pytest

from repro.disk.cache import ReadAheadPolicy
from repro.disk.disk import Disk
from repro.disk.specs import HP97560, ST19101
from tests._media import op_counts
from tests.disk.reference_read import reference_read

OPS = 600


def _state(disk):
    return (
        disk.clock.now.hex(),
        disk.head_cylinder,
        disk.head_head,
        disk.cache._segment,
        disk.cache.hits,
        disk.cache.misses,
        {k: v.hex() if isinstance(v, float) else v for k, v in op_counts(disk).items()},
    )


def _components(breakdown):
    return tuple(
        x.hex()
        for x in (breakdown.scsi, breakdown.transfer, breakdown.locate, breakdown.other)
    )


def _next_read(rng, disk, last):
    per_track = disk.geometry.sectors_per_track
    total = disk.total_sectors
    roll = rng.random()
    count = rng.choice((1, 1, 2, 8, 8, 16))
    if roll < 0.2:
        sector = last
    elif roll < 0.5:
        # Elsewhere on the track just read, above or below.
        track_lo = last - last % per_track
        sector = track_lo + rng.randrange(per_track)
    elif roll < 0.6:
        # Across a track boundary.
        count = rng.randrange(2, per_track)
        boundary = per_track * rng.randrange(1, total // per_track)
        sector = boundary - rng.randrange(1, count)
    else:
        sector = rng.randrange(total)
    count = min(count, total - sector)
    return sector, count


@pytest.mark.parametrize("store_data", [True, False], ids=["data", "timing"])
@pytest.mark.parametrize("charge_scsi", [True, False], ids=["scsi", "no-scsi"])
@pytest.mark.parametrize("policy", list(ReadAheadPolicy), ids=lambda p: p.value)
@pytest.mark.parametrize("spec", [ST19101, HP97560], ids=lambda s: s.name)
def test_read_matches_the_composed_reference(spec, policy, charge_scsi, store_data):
    disks = [
        Disk(spec, num_cylinders=3, readahead=policy, store_data=store_data)
        for _ in range(2)
    ]
    rng = random.Random(f"{spec.name}/{policy.value}/{charge_scsi}/{store_data}")
    last = 0
    for _ in range(OPS):
        roll = rng.random()
        if roll < 0.15:
            sector = rng.randrange(disks[0].total_sectors - 8)
            data = rng.randbytes(8 * disks[0].sector_bytes) if store_data else None
            for disk in disks:
                disk.write(sector, 8, data)
            continue
        if roll < 0.25:
            gap = rng.random() * 0.01
            for disk in disks:
                disk.clock.advance(gap)
            continue
        sector, count = _next_read(rng, disks[0], last)
        got = disks[0].read(sector, count, charge_scsi)
        want = reference_read(disks[1], sector, count, charge_scsi)
        assert got[0] == want[0]
        assert _components(got[1]) == _components(want[1])
        assert _state(disks[0]) == _state(disks[1])
        last = sector
    cache = disks[0].cache
    assert cache.misses > 0
    if policy is not ReadAheadPolicy.DISABLED:
        assert cache.hits > 0


def test_invalid_runs_raise_as_before():
    disk = Disk(ST19101, num_cylinders=1)
    for sector, count in ((0, 0), (-1, 1), (disk.total_sectors - 1, 2)):
        with pytest.raises(ValueError) as got:
            disk.read(sector, count)
        with pytest.raises(ValueError) as want:
            reference_read(disk, sector, count)
        assert str(got.value) == str(want.value)
