import pytest

from repro.disk.freemap import FreeSpaceMap
from repro.disk.geometry import DiskGeometry
from repro.disk.specs import ST19101


@pytest.fixture
def geo():
    return DiskGeometry(ST19101, num_cylinders=2)


@pytest.fixture
def fm(geo):
    return FreeSpaceMap(geo)


class TestBookkeeping:
    def test_starts_all_free(self, fm, geo):
        assert fm.free_sectors == geo.total_sectors
        assert fm.utilization == 0.0

    def test_mark_used_updates_counts(self, fm, geo):
        fm.mark_used(0, 8)
        assert fm.free_sectors == geo.total_sectors - 8
        assert fm.track_free_count(0, 0) == 256 - 8
        assert fm.cylinder_free_count(0) == geo.sectors_per_cylinder - 8

    def test_mark_used_idempotent(self, fm, geo):
        fm.mark_used(10)
        fm.mark_used(10)
        assert fm.free_sectors == geo.total_sectors - 1

    def test_mark_free_restores(self, fm, geo):
        fm.mark_used(100, 16)
        fm.mark_free(100, 16)
        assert fm.free_sectors == geo.total_sectors
        assert fm.is_free(100)

    def test_run_is_free(self, fm):
        fm.mark_used(20)
        assert not fm.run_is_free(16, 8)
        assert fm.run_is_free(24, 8)

    def test_out_of_range(self, fm, geo):
        with pytest.raises(ValueError):
            fm.mark_used(geo.total_sectors)
        with pytest.raises(ValueError):
            fm.mark_used(geo.total_sectors - 4, 8)
        with pytest.raises(ValueError):
            fm.mark_free(-1, 2)
        with pytest.raises(ValueError):
            fm.mark_free(0, 0)
        # Whichever end is out of range is the one named.
        with pytest.raises(ValueError, match=f"sector {geo.total_sectors + 3} "):
            fm.mark_used(geo.total_sectors - 4, 8)
        assert fm.free_sectors == geo.total_sectors

    def test_utilization_fraction(self, fm, geo):
        fm.mark_used(0, geo.total_sectors // 2)
        assert fm.utilization == pytest.approx(0.5)


class TestRotationalQueries:
    def test_nearest_on_empty_track_is_next_aligned_slot(self, fm, geo):
        gap, sector = fm.nearest_free_run(0, 0, 0.0, 8, align=8)
        assert sector == 0
        assert gap == pytest.approx(0.0)

    def test_nearest_respects_start_slot(self, fm, geo):
        # Head at slot 4: next aligned block boundary is slot 8.
        gap, sector = fm.nearest_free_run(0, 0, 4.0, 8, align=8)
        assert gap == pytest.approx(4.0)
        assert sector == geo.sector_at_angle(0, 0, 8)

    def test_nearest_skips_used_runs(self, fm, geo):
        base = geo.track_start(0, 0)
        # occupy the first 4 aligned runs at angles 0..31 (track 0,0 has
        # zero skew so angle == sector index).
        fm.mark_used(base, 32)
        gap, sector = fm.nearest_free_run(0, 0, 0.0, 8, align=8)
        assert sector == base + 32
        assert gap == pytest.approx(32.0)

    def test_nearest_wraps(self, fm, geo):
        gap, sector = fm.nearest_free_run(0, 0, 250.0, 8, align=8)
        assert gap == pytest.approx(6.0)  # wraps to slot 0
        assert sector == geo.track_start(0, 0)

    def test_full_track_returns_none(self, fm, geo):
        base = geo.track_start(0, 0)
        fm.mark_used(base, 256)
        assert fm.nearest_free_run(0, 0, 0.0, 8, align=8) is None

    def test_no_aligned_run_returns_none(self, fm, geo):
        base = geo.track_start(0, 0)
        # Free only odd-position singles: no aligned run of 8.
        fm.mark_used(base, 256)
        for i in range(0, 256, 2):
            fm.mark_free(base + i)
        assert fm.nearest_free_run(0, 0, 0.0, 8, align=8) is None
        gap, sector = fm.nearest_free_run(0, 0, 0.0, 1, align=1)
        assert gap == pytest.approx(0.0)

    def test_count_exceeding_track_none(self, fm):
        assert fm.nearest_free_run(0, 0, 0.0, 257) is None

    def test_cylinder_query_prefers_current_track(self, fm, geo):
        found = fm.nearest_free_in_cylinder(
            0, 0, 0.0, 8, align=8, head_switch_slots=20.0
        )
        gap, sector, head = found
        assert head == 0
        assert gap == pytest.approx(0.0)

    def test_cylinder_query_switches_when_current_full(self, fm, geo):
        fm.mark_used(geo.track_start(0, 0), 256)
        found = fm.nearest_free_in_cylinder(
            0, 0, 0.0, 8, align=8, head_switch_slots=20.0
        )
        gap, sector, head = found
        assert head != 0
        assert gap >= 20.0  # cannot beat the head-switch penalty

    def test_cylinder_query_none_when_cylinder_full(self, fm, geo):
        for head in range(geo.tracks_per_cylinder):
            fm.mark_used(geo.track_start(0, head), 256)
        assert (
            fm.nearest_free_in_cylinder(0, 0, 0.0, 8, align=8) is None
        )

    def test_free_sector_iter(self, fm, geo):
        base = geo.track_start(1, 2)
        fm.mark_used(base, 256)
        fm.mark_free(base + 7)
        fm.mark_free(base + 100)
        assert list(fm.free_sector_iter(1, 2)) == [base + 7, base + 100]
