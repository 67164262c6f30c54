import pytest

from repro.disk.disk import Disk
from repro.disk.freemap import FreeSpaceMap
from repro.disk.specs import ST19101
from repro.vlog.allocator import (
    AllocationPolicy,
    DiskFullError,
    EagerAllocator,
)
from tests._media import op_counts


def make(policy=AllocationPolicy.NEAREST, fill_threshold=0.75):
    disk = Disk(ST19101, num_cylinders=3, store_data=False)
    freemap = FreeSpaceMap(disk.geometry)
    allocator = EagerAllocator(
        disk, freemap, block_sectors=8, policy=policy,
        fill_threshold=fill_threshold,
    )
    return disk, freemap, allocator


class TestBasics:
    def test_allocate_marks_used(self):
        _disk, freemap, allocator = make()
        block = allocator.allocate()
        assert not freemap.run_is_free(block * 8, 8)

    def test_allocate_returns_aligned_blocks(self):
        _disk, _freemap, allocator = make()
        for _ in range(20):
            block = allocator.allocate()
            assert 0 <= block * 8 < _freemap.geometry.total_sectors

    def test_free_block_returns_space(self):
        _disk, freemap, allocator = make()
        block = allocator.allocate()
        allocator.free_block(block)
        assert freemap.run_is_free(block * 8, 8)

    def test_reserve_block_excluded(self):
        _disk, freemap, allocator = make()
        allocator.reserve_block(0)
        for _ in range(50):
            assert allocator.allocate() != 0

    def test_wrong_unit_rejected(self):
        _disk, _freemap, allocator = make()
        with pytest.raises(ValueError):
            allocator.allocate(4)

    def test_disk_full_raises(self):
        _disk, freemap, allocator = make()
        freemap.mark_used(0, freemap.geometry.total_sectors)
        with pytest.raises(DiskFullError):
            allocator.allocate()


class TestNearestPolicy:
    def test_prefers_current_track(self):
        disk, _freemap, allocator = make(AllocationPolicy.NEAREST)
        block = allocator.allocate()
        cylinder, head, _ = disk.geometry.decompose(block * 8)
        assert (cylinder, head) == (disk.head_cylinder, disk.head_head)

    def test_choice_is_rotationally_near(self):
        """The chosen block must cost less than one revolution when the
        current track has free space."""
        disk, _freemap, allocator = make(AllocationPolicy.NEAREST)
        block = allocator.allocate()
        cost = disk.write(block * 8, 8, charge_scsi=False)
        assert cost.locate < disk.mechanics.rotation_time

    def test_spills_to_other_cylinders_when_local_full(self):
        disk, freemap, allocator = make(AllocationPolicy.NEAREST)
        # Fill cylinder 0 entirely.
        freemap.mark_used(0, disk.geometry.sectors_per_cylinder)
        block = allocator.allocate()
        cylinder, _, _ = disk.geometry.decompose(block * 8)
        assert cylinder != 0


class TestGreedyPolicy:
    def test_sweep_is_one_directional(self):
        disk, freemap, allocator = make(AllocationPolicy.GREEDY_CYLINDER)
        # Fill cylinders 0 and 1; free space only in cylinder 2.
        freemap.mark_used(0, 2 * disk.geometry.sectors_per_cylinder)
        block = allocator.allocate()
        cylinder, _, _ = disk.geometry.decompose(block * 8)
        assert cylinder == 2

    def test_stays_in_cylinder_while_space_exists(self):
        disk, _freemap, allocator = make(AllocationPolicy.GREEDY_CYLINDER)
        cylinders = set()
        for _ in range(30):
            block = allocator.allocate()
            cylinder, _, _ = disk.geometry.decompose(block * 8)
            cylinders.add(cylinder)
        assert cylinders == {disk.head_cylinder}


class TestTrackFillPolicy:
    def test_fills_one_track_to_threshold_then_switches(self):
        disk, freemap, allocator = make(
            AllocationPolicy.TRACK_FILL, fill_threshold=0.75
        )
        n = disk.geometry.sectors_per_track
        reserve = allocator.reserve_sectors
        tracks = []
        # Allocate until two tracks have been touched.
        for _ in range(2 * n // 8):
            block = allocator.allocate()
            cylinder, head, _ = disk.geometry.decompose(block * 8)
            if (cylinder, head) not in tracks:
                tracks.append((cylinder, head))
        assert len(tracks) >= 2
        first = tracks[0]
        # The first track was left with (about) the reserve free.
        left_free = freemap.track_free_count(*first)
        assert reserve <= left_free < reserve + 8 + 8

    def test_falls_back_to_greedy_without_empty_tracks(self):
        disk, freemap, allocator = make(AllocationPolicy.TRACK_FILL)
        # Make every track partially used: no empty track remains.
        for cylinder in range(disk.geometry.num_cylinders):
            for head in range(disk.geometry.tracks_per_cylinder):
                freemap.mark_used(disk.geometry.track_start(cylinder, head), 8)
        allocator.allocate()
        assert allocator.fallbacks >= 1

    def test_invalid_threshold_rejected(self):
        disk = Disk(ST19101, num_cylinders=2, store_data=False)
        freemap = FreeSpaceMap(disk.geometry)
        with pytest.raises(ValueError):
            EagerAllocator(disk, freemap, 8, fill_threshold=0.0)


class TestEagerVsInPlaceLatency:
    def test_eager_writes_beat_random_in_place_writes(self):
        """The thesis of the paper, at allocator level: eager placement
        costs far less positioning time than random in-place writes."""
        import random

        rng = random.Random(3)
        disk, freemap, allocator = make(AllocationPolicy.NEAREST)
        # Occupy 50 % of space randomly.
        total = disk.geometry.total_sectors
        for sector in rng.sample(range(total // 8), total // 16):
            freemap.mark_used(sector * 8, 8)
        eager = 0.0
        trials = 50
        for _ in range(trials):
            block = allocator.allocate()
            eager += disk.write(block * 8, 8, charge_scsi=False).locate
            allocator.free_block(block)
        in_place = 0.0
        for _ in range(trials):
            sector = rng.randrange(total // 8) * 8
            in_place += disk.write(sector, 8, charge_scsi=False).locate
        assert eager < in_place / 3


#: sha256 of the placement sequence below, recorded at the commit before
#: the angle-major cylinder bitmap and the positioning kernel landed.
_GOLDEN_PLACEMENT_SHA256 = (
    "b7ef9f51021886b8cd2f527f9b5f3b8f208a0b474abc83b6fb508081cb89c956"
)


def test_placement_sequence_is_pinned():
    """The write-path twin of ``TestRecoverySimIdentity``: a 70 %-full
    VLD takes 2 000 seeded random overwrites with idle time every 256
    (the ledger's ``vld_sync_update`` at a fifth of the scale), so the
    fill track, the greedy fallback, the map allocator and the compactor
    all place blocks -- and every physical block chosen, every clock
    reading and every counter is bit-identical to the recorded run.  A
    free-map or mechanics speed-up may change host time only."""
    import hashlib
    import random

    from repro.vlog.vld import VirtualLogDisk

    rng = random.Random(17)
    disk = Disk(ST19101)
    vld = VirtualLogDisk(disk)
    live = rng.sample(range(vld.num_blocks), int(0.70 * vld.physical_blocks))
    page = bytes(vld.block_size)
    for lba in sorted(live):
        vld.write_block(lba, page)
    digest = hashlib.sha256()
    for issued in range(1, 2001):
        lba = rng.choice(live)
        vld.write_block(lba, page)
        digest.update(
            f"{vld.imap.get(lba)} {disk.clock.now.hex()}\n".encode()
        )
        if issued % 256 == 0:
            vld.idle(0.25)
    allocator, vlog, compactor = vld.allocator, vld.vlog, vld.compactor
    assert allocator.fallbacks > 0 and compactor.blocks_moved > 0
    counters = op_counts(disk)
    counters["busy_time"] = counters["busy_time"].hex()
    digest.update(
        repr(
            (
                allocator.allocations,
                allocator.fallbacks,
                vlog.appends,
                vlog.relocations,
                compactor.blocks_moved,
                sorted(counters.items()),
            )
        ).encode()
    )
    assert digest.hexdigest() == _GOLDEN_PLACEMENT_SHA256
