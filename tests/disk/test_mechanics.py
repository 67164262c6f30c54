import math

import pytest

from repro.disk.geometry import DiskGeometry
from repro.disk.mechanics import DiskMechanics
from repro.disk.specs import HP97560, ST19101
from tests.disk.scalar_mechanics import ScalarMechanics


@pytest.fixture
def mech():
    return DiskMechanics(DiskGeometry(ST19101))


class TestRotation:
    def test_position_at_time_zero(self, mech):
        assert mech.rotational_slot(0.0) == pytest.approx(0.0)

    def test_position_wraps_each_revolution(self, mech):
        assert mech.rotational_slot(mech.rotation_time) == pytest.approx(
            0.0, abs=1e-6
        )

    def test_position_mid_revolution(self, mech):
        half = mech.rotation_time / 2
        assert mech.rotational_slot(half) == pytest.approx(128.0)

    def test_negative_time_rejected(self, mech):
        with pytest.raises(ValueError):
            mech.rotational_slot(-1.0)

    def test_wait_for_current_slot_is_zero(self, mech):
        assert mech.wait_for_slot(0.0, 0) == pytest.approx(0.0)

    def test_wait_wraps_around(self, mech):
        # Just past slot 10: must wait almost a full revolution for it.
        now = 10.5 * mech.sector_time
        wait = mech.wait_for_slot(now, 10)
        assert wait == pytest.approx(255.5 * mech.sector_time)

    def test_wait_bounded_by_revolution(self, mech):
        for slot in (0, 100, 255):
            wait = mech.wait_for_slot(0.00123, slot)
            assert 0.0 <= wait < mech.rotation_time

    def test_wait_bad_slot(self, mech):
        with pytest.raises(ValueError):
            mech.wait_for_slot(0.0, 256)


class TestRotationBoundaryNormalization:
    """Regression: times within one ulp of a rotation boundary must read
    as slot 0, not "a hair past it".

    ``k * rotation_time`` usually rounds to a float one ulp *above* the
    mathematical boundary; before the fix, the sub-ulp remainder made
    ``rotational_slot`` report a tiny positive position and
    ``wait_for_slot(now, 0)`` then charged a (near-)full spurious
    revolution -- measured at 1.000000 revolutions on the HP97560 -- for
    half an ulp of simulated time.
    """

    SPECS = (HP97560, ST19101)
    MULTIPLES = (1, 2, 3, 7, 1000, 123457)

    def _adversarial_times(self, rotation):
        for k in self.MULTIPLES:
            exact = k * rotation
            yield exact
            yield math.nextafter(exact, math.inf)   # k*rot*(1 + ulp)
            yield math.nextafter(exact, 0.0)        # k*rot*(1 - ulp)

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.name)
    def test_no_spurious_revolution_at_boundaries(self, spec):
        mech = DiskMechanics(DiskGeometry(spec))
        for now in self._adversarial_times(mech.rotation_time):
            wait = mech.wait_for_slot(now, 0)
            # At (or within one ulp of) a boundary, the correct wait for
            # slot 0 is essentially zero; a near-full revolution is the
            # bug this pins.
            assert wait < mech.sector_time, (
                f"{spec.name}: wait_for_slot({now!r}, 0) charged "
                f"{wait / mech.rotation_time:.6f} revolutions"
            )

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.name)
    def test_one_ulp_above_boundary_snaps_to_slot_zero(self, spec):
        # ``k * rotation_time`` rounds to within half an ulp of the true
        # boundary, so one float above it sits at most one ulp past the
        # boundary: pure rounding noise, and the position must read 0.
        # (``k * rotation_time`` itself may round *below* the boundary,
        # where a position just under ``n`` is the correct answer -- the
        # wait assertion above covers that side.)
        mech = DiskMechanics(DiskGeometry(spec))
        for k in self.MULTIPLES:
            above = math.nextafter(k * mech.rotation_time, math.inf)
            assert mech.rotational_slot(above) == 0.0

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.name)
    def test_slot_stays_in_range(self, spec):
        mech = DiskMechanics(DiskGeometry(spec))
        n = mech.sectors_per_track
        for now in self._adversarial_times(mech.rotation_time):
            assert 0.0 <= mech.rotational_slot(now) < n

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.name)
    def test_batch_path_reproduces_fix_bit_for_bit(self, spec):
        geometry = DiskGeometry(spec)
        mech = DiskMechanics(geometry)
        reference = ScalarMechanics(geometry)
        for now in self._adversarial_times(mech.rotation_time):
            assert mech.rotational_slot(now) == reference.rotational_slot(now)

    def test_ordinary_times_unchanged(self, mech):
        # The normalization must not disturb positions away from
        # boundaries: mid-slot answers are the plain closed form.
        # (0.5 * rotation_time is an exact interior boundary for an even
        # sector count, so it already reads as an exact integer slot.)
        n = mech.sectors_per_track
        mid_slot = (0.5 + 0.37 / n) * mech.rotation_time
        for now in (0.00123, mid_slot, 3.0 * mech.rotation_time + mid_slot):
            rem = now % mech.rotation_time
            if rem > math.ulp(now):
                expected = (rem / mech.rotation_time) * mech.sectors_per_track
                assert mech.rotational_slot(now) == expected

    def test_interior_sector_boundaries_snap(self, mech):
        # Times that are mathematically a whole number of sector slots
        # past a rotation boundary read as exactly that integer slot,
        # even though the float product lands a few ulp off it -- the
        # same normalization as slot 0, applied to interior boundaries
        # (a chain of back-to-back transfers ends exactly on one, and a
        # hair-past reading would charge a spurious full revolution for
        # the physically adjacent sector).
        n = mech.sectors_per_track
        for k in (1, 3, 17, n - 1):
            for revs in (0, 2, 1000):
                now = (revs * n + k) * mech.sector_time
                assert mech.rotational_slot(now) == float(k), (revs, k)


class TestTransferAndPositioning:
    def test_transfer_scales_linearly(self, mech):
        assert mech.transfer_time(8) == pytest.approx(8 * mech.sector_time)

    def test_transfer_zero(self, mech):
        assert mech.transfer_time(0) == 0.0

    def test_transfer_negative_rejected(self, mech):
        with pytest.raises(ValueError):
            mech.transfer_time(-1)

    def test_seek_symmetry(self, mech):
        assert mech.positioning_time(0, 0, 5, 0) == ST19101.seek_time(5)
        assert mech.positioning_time(5, 0, 0, 0) == ST19101.seek_time(5)

    def test_head_switch_only_when_heads_differ(self, mech):
        assert mech.positioning_time(0, 3, 0, 3) == 0.0
        assert mech.positioning_time(0, 0, 0, 1) == ST19101.head_switch_time

    def test_positioning_overlaps_seek_and_switch(self, mech):
        # Concurrent: max, not sum.
        seek = ST19101.seek_time(5)
        switch = ST19101.head_switch_time
        combined = mech.positioning_time(0, 0, 5, 1)
        assert combined == pytest.approx(max(seek, switch))

    def test_positioning_same_track_free(self, mech):
        assert mech.positioning_time(2, 3, 2, 3) == 0.0

    def test_hp_rotation_slower(self):
        hp = DiskMechanics(DiskGeometry(HP97560))
        sg = DiskMechanics(DiskGeometry(ST19101))
        assert hp.rotation_time > 2 * sg.rotation_time
