"""The positioning kernel, ``DiskMechanics.access``, and its callers.

Position -> rotate -> transfer is written once.  Pinned here, all with
exact ``==`` on floats:

* the kernel is the scalar reference's composition
  (``tests/disk/scalar_mechanics.py``) and the class's own validated
  primitives, fused;
* random request sequences through ``Disk.write`` and ``Disk.read``
  (single- and multi-track, buffer hits included) and block runs through
  ``Disk.write_run`` leave the clock, the arm and the ``Breakdown``
  exactly where composing the kernel by hand leaves them -- a changed
  accumulation order in any caller fails it;
* ``EagerAllocator.allocate_run`` projects each block of its run with the
  kernel, chained, and servicing the run lands the disk exactly where
  the projection ended.
"""

import random

import pytest
from hypothesis import given

from repro.disk.disk import Disk
from repro.disk.freemap import FreeSpaceMap
from repro.disk.specs import ST19101
from repro.sim.stats import Breakdown
from repro.vlog.allocator import AllocationPolicy, EagerAllocator
from tests.disk.test_batch_mechanics import _SETTINGS, rigs, tiny_spec


@given(rigs())
@_SETTINGS
def test_kernel_is_the_scalar_composition(rig):
    _, geometry, reference, mechanics, head_cyl, head_head, now, cands = rig
    n = geometry.sectors_per_track
    for sector in cands:
        cylinder, head, sect = geometry.decompose(sector)
        count = 1 + sector % (n - sect)  # stays on the track
        positioning = reference.positioning_time(
            head_cyl, head_head, cylinder, head
        )
        rotational = reference.wait_for_slot(
            now + positioning, geometry.angle_of(cylinder, head, sect)
        )
        transfer = count * reference.sector_time
        assert mechanics.access(now, head_cyl, head_head, sector, count) == (
            ((now + positioning) + rotational) + transfer,
            positioning,
            rotational,
            transfer,
            cylinder,
            head,
        )
        # ... and of the class's own primitives.
        assert positioning == mechanics.positioning_time(
            head_cyl, head_head, cylinder, head
        )
        assert rotational == mechanics.wait_for_slot(
            now + positioning, mechanics.angle_of(cylinder, head, sect)
        )
        assert transfer == mechanics.transfer_time(count)


class Shadow:
    """A disk's clock, arm and one request's ``Breakdown``, advanced by
    composing the kernel by hand."""

    def __init__(self, disk):
        self.disk = disk
        self.t = disk.clock.now
        self.arm = (disk.head_cylinder, disk.head_head)

    def request(self, sector, count, charge_scsi, read=False):
        """What one ``read``/``write`` must cost; call *before* issuing
        it (a read's buffer hits are judged on the buffer as it stands)."""
        disk = self.disk
        mechanics = disk.mechanics
        per_track = disk.geometry.sectors_per_track
        expected = Breakdown()
        if charge_scsi:
            expected.scsi += disk.spec.scsi_overhead
            self.t += disk.spec.scsi_overhead
        while count > 0:
            chunk = min(count, per_track - sector % per_track)
            if read and disk.cache.contains(sector, chunk):
                transfer = mechanics.transfer_time(chunk)
                expected.transfer += transfer
                self.t += transfer
            else:
                self.t, positioning, rotational, transfer, *self.arm = (
                    mechanics.access(self.t, *self.arm, sector, chunk)
                )
                expected.locate = (expected.locate + positioning) + rotational
                expected.transfer += transfer
            sector += chunk
            count -= chunk
        return expected

    def check(self, expected, got):
        disk = self.disk
        assert (disk.clock.now, disk.head_cylinder, disk.head_head, got) == (
            self.t, *self.arm, expected
        )


@pytest.mark.parametrize("seed", range(6))
def test_reads_and_writes_compose_the_kernel(seed):
    rng = random.Random(seed)
    n = rng.choice([10, 16, 48])
    disk = Disk(tiny_spec(n, 3, 4, head_switch_slots=rng.randrange(5)))
    shadow = Shadow(disk)
    total = disk.total_sectors
    multi_track_reads = 0
    for _ in range(400):
        sector = rng.randrange(total)
        # Mostly short requests (so the track buffer hits), some that
        # cross one or two track boundaries.
        longest = 4 if rng.random() < 0.7 else 2 * n + 3
        count = rng.randint(1, min(longest, total - sector))
        read = rng.random() < 0.6
        charge_scsi = rng.random() < 0.5
        expected = shadow.request(sector, count, charge_scsi, read)
        if read:
            _, got = disk.read(sector, count, charge_scsi=charge_scsi)
            multi_track_reads += count > n - sector % n
        else:
            got = disk.write(sector, count, charge_scsi=charge_scsi)
        shadow.check(expected, got)
    assert disk.cache.hits > 0 and multi_track_reads > 0


@pytest.mark.parametrize("seed", range(4))
def test_write_run_composes_the_kernel_per_block(seed):
    rng = random.Random(seed)
    disk = Disk(ST19101, num_cylinders=3, store_data=False)
    shadow = Shadow(disk)
    spb = 8
    blocks_total = disk.total_sectors // spb
    folded = Breakdown()
    expected_folded = Breakdown()
    for _ in range(200):
        blocks = rng.randint(2, 40)  # up to two track crossings
        first = rng.randrange(blocks_total - blocks)
        charge_scsi = rng.random() < 0.3
        expected = Breakdown()
        for i in range(blocks):
            piece = shadow.request((first + i) * spb, spb, charge_scsi)
            expected.add(piece)
            expected_folded.add(piece)
        got = disk.write_run(
            first * spb, blocks * spb, spb,
            charge_scsi=charge_scsi, accumulate=folded,
        )
        shadow.check(expected, got)
        assert folded == expected_folded


@pytest.mark.parametrize(
    "policy", [AllocationPolicy.TRACK_FILL, AllocationPolicy.GREEDY_CYLINDER]
)
def test_allocate_run_projects_with_the_kernel(policy):
    rng = random.Random(5)
    disk = Disk(ST19101, num_cylinders=3, store_data=False)
    freemap = FreeSpaceMap(disk.geometry)
    allocator = EagerAllocator(disk, freemap, block_sectors=8, policy=policy)
    mechanics = disk.mechanics
    kernel = mechanics.access
    calls = []

    def recording(now, head_cylinder, head_head, sector, count):
        result = kernel(now, head_cylinder, head_head, sector, count)
        calls.append(((now, head_cylinder, head_head, sector, count), result))
        return result

    extended = 0
    held = []
    for _ in range(300):
        want = rng.randint(2, 6)
        del calls[:]
        mechanics.access = recording
        try:
            first, run = allocator.allocate_run(want)
        finally:
            del mechanics.access
        held.extend(range(first, first + run))
        if calls:
            # One projected write per block of the run, each issued where
            # the one before ended, from the true clock and arm.
            assert len(calls) == run
            now, arm = disk.clock.now, (disk.head_cylinder, disk.head_head)
            for i, (args, result) in enumerate(calls):
                assert args == (now, *arm, (first + i) * 8, 8)
                now, arm = result[0], result[4:]
            extended += run > 1
        else:
            assert run == 1
            now = None
        disk.write_run(first * 8, run * 8, 8, charge_scsi=False)
        if now is not None:
            assert (disk.clock.now, disk.head_cylinder, disk.head_head) == (
                now, *arm
            )
        # Keep the drive around two-thirds full so both the fill track
        # and (under TRACK_FILL) the greedy fallback place runs.
        while len(held) > 0.66 * disk.total_sectors // 8:
            allocator.free_block(held.pop(rng.randrange(len(held))))
        disk.clock.advance(rng.random() * 1e-3)
    assert extended > 50
