import pytest

from repro.disk.cache import ReadAheadPolicy
from repro.disk.disk import Disk
from repro.disk.specs import HP97560, ST19101
from repro.sim.clock import SimClock
from tests._media import poke


@pytest.fixture
def disk():
    return Disk(ST19101, SimClock())


class TestDataPath:
    def test_write_then_read_roundtrip(self, disk):
        payload = bytes(range(256)) * 16  # 8 sectors
        disk.write(100, 8, payload)
        data, _ = disk.read(100, 8)
        assert data == payload

    def test_unwritten_sectors_read_zero(self, disk):
        data, _ = disk.read(0, 4)
        assert data == bytes(4 * 512)

    def test_write_without_data_writes_zeros(self, disk):
        poke(disk, 50, b"\xff" * 512)
        disk.write(50, 1)
        assert disk.peek(50) == bytes(512)

    def test_length_mismatch_rejected(self, disk):
        with pytest.raises(ValueError):
            disk.write(0, 2, b"short")

    def test_out_of_range_rejected(self, disk):
        with pytest.raises(ValueError):
            disk.read(disk.total_sectors, 1)
        with pytest.raises(ValueError):
            disk.read(disk.total_sectors - 2, 4)

    def test_peek_poke_do_not_advance_time(self, disk):
        before = disk.clock.now
        poke(disk, 0, b"a" * 512)
        disk.peek(0)
        assert disk.clock.now == before

    def test_store_data_false_disables_contents(self):
        disk = Disk(ST19101, store_data=False)
        disk.write(0, 1, b"x" * 512)
        with pytest.raises(RuntimeError):
            disk.peek(0)


class TestServiceTiming:
    def test_scsi_overhead_charged_once(self, disk):
        _, breakdown = disk.read(0, 1)
        assert breakdown.scsi == pytest.approx(ST19101.scsi_overhead)

    def test_internal_access_skips_scsi(self, disk):
        _, breakdown = disk.read(0, 1, charge_scsi=False)
        assert breakdown.scsi == 0.0

    def test_clock_advances_by_breakdown_total(self, disk):
        start = disk.clock.now
        breakdown = disk.write(1000, 8)
        assert disk.clock.now - start == pytest.approx(breakdown.total)

    def test_write_includes_transfer(self, disk):
        breakdown = disk.write(0, 8)
        assert breakdown.transfer == pytest.approx(
            8 * ST19101.sector_time
        )

    def test_rotational_wait_under_one_revolution(self, disk):
        breakdown = disk.write(0, 1)  # no seek needed: cylinder 0, head 0
        assert breakdown.locate < ST19101.rotation_time

    def test_seek_charged_for_cylinder_move(self, disk):
        far = disk.geometry.compose(10, 0, 0)
        breakdown = disk.write(far, 1)
        assert breakdown.locate >= ST19101.seek_time(10)
        assert disk.head_cylinder == 10

    def test_sequential_write_is_efficient(self, disk):
        """Skew must keep multi-track sequential transfers near media rate."""
        sectors = disk.geometry.sectors_per_track * 4  # 4 tracks
        breakdown = disk.write(0, sectors)
        media = sectors * ST19101.sector_time
        # Allow one initial rotational wait plus small per-track slack.
        assert breakdown.total < media + ST19101.rotation_time + 4 * (
            ST19101.head_switch_time + 2 * ST19101.sector_time
        )

    def test_random_write_costs_half_rotation_on_average(self, disk):
        """The update-in-place premise of Section 2.1."""
        import random

        rng = random.Random(9)
        total_locate = 0.0
        trials = 200
        for _ in range(trials):
            sector = rng.randrange(disk.total_sectors)
            breakdown = disk.write(sector, 1, charge_scsi=False)
            total_locate += breakdown.locate
        mean = total_locate / trials
        # Half a rotation is 3 ms; seeks add a bit on top.
        assert 0.5 * ST19101.rotation_time * 0.7 < mean < 3 * ST19101.rotation_time

    def test_cached_read_skips_mechanics(self, disk):
        disk.read(0, 4)  # populates the track buffer via read-ahead
        _, second = disk.read(8, 4)
        assert second.locate == 0.0

    def test_write_invalidates_track_buffer(self, disk):
        disk.read(0, 4)
        disk.write(8, 4)
        _, again = disk.read(8, 4)
        assert again.locate > 0.0

    def test_busy_time_accumulates(self, disk):
        disk.read(0, 1)
        disk.write(100, 8)
        assert disk.counters.busy_time == pytest.approx(disk.clock.now)


class TestReadAheadPolicies:
    def test_full_track_policy_serves_lower_addresses(self):
        disk = Disk(ST19101, readahead=ReadAheadPolicy.FULL_TRACK)
        disk.read(100, 4)
        _, breakdown = disk.read(0, 4)  # lower address, same track
        assert breakdown.locate == 0.0

    def test_dartmouth_policy_purges_lower_addresses(self):
        disk = Disk(ST19101, readahead=ReadAheadPolicy.DARTMOUTH)
        disk.read(100, 4)
        disk.read(150, 4)
        _, breakdown = disk.read(0, 4)
        assert breakdown.locate > 0.0


class TestHpModel:
    def test_hp_single_sector_write_slower_than_seagate(self):
        hp = Disk(HP97560)
        sg = Disk(ST19101)
        hp_cost = hp.write(5000, 1).total
        sg_cost = sg.write(5000, 1).total
        assert hp_cost > sg_cost
