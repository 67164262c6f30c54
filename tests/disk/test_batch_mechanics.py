"""Oracle tests for the batched mechanics pricing.

:class:`BatchMechanics` promises *bit-for-bit* the same answers as
composing the scalar :class:`DiskMechanics` / :class:`DiskGeometry`
calls one candidate at a time, so every comparison here is exact ``==``
on floats -- the same discipline as the ``FreeSpaceMap`` vs
``ReferenceFreeSpaceMap`` oracle suite.  Geometries are generated with
random skews, head positions, times (including rotation-boundary
adversaries), and candidate sets covering empty, single, and
multi-track-straddling shapes.
"""

import math

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.disk.batch_mechanics import BatchMechanics
from repro.disk.geometry import DiskGeometry
from repro.disk.mechanics import DiskMechanics
from repro.disk.specs import DiskSpec, HP97560, ST19101

_SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def tiny_spec(n: int, t: int, cylinders: int, head_switch_slots: int = 3) -> DiskSpec:
    """A small drive with nonzero track and cylinder skew."""
    rpm = 10000.0
    sector_time = (60.0 / rpm) / n
    return DiskSpec(
        name=f"TINY{n}x{t}x{cylinders}",
        sectors_per_track=n,
        tracks_per_cylinder=t,
        num_cylinders=cylinders,
        sim_cylinders=cylinders,
        rpm=rpm,
        head_switch_time=head_switch_slots * sector_time * 0.999,
        scsi_overhead=1e-4,
        sector_bytes=512,
        seek_short_a=3e-4,
        seek_short_b=2e-4,
        seek_long_c=4e-3,
        seek_long_e=8e-7,
        seek_boundary=400,
    )


@st.composite
def rigs(draw):
    """(spec, geometry, mechanics, batch, head_cyl, head_head, now,
    candidate sectors)."""
    n = draw(st.integers(min_value=4, max_value=48))
    t = draw(st.integers(min_value=1, max_value=5))
    cylinders = draw(st.integers(min_value=1, max_value=6))
    switch_slots = draw(st.integers(min_value=0, max_value=5))
    spec = tiny_spec(n, t, cylinders, switch_slots)
    geometry = DiskGeometry(spec, cylinders)
    mechanics = DiskMechanics(spec)
    batch = BatchMechanics(spec, geometry)
    head_cyl = draw(st.integers(min_value=0, max_value=cylinders - 1))
    head_head = draw(st.integers(min_value=0, max_value=t - 1))
    # Times: ordinary values plus rotation-boundary adversaries.
    rotation = spec.rotation_time
    now = draw(
        st.one_of(
            st.floats(min_value=0.0, max_value=50.0,
                      allow_nan=False, allow_infinity=False),
            st.integers(min_value=0, max_value=100_000).map(
                lambda k: k * rotation
            ),
            st.integers(min_value=1, max_value=100_000).map(
                lambda k: math.nextafter(k * rotation, math.inf)
            ),
        )
    )
    # Candidate sets: empty, single, clustered on one track, and wild
    # multi-track-straddling mixes (any linear sector is a legal start).
    candidates = draw(
        st.lists(
            st.integers(min_value=0, max_value=geometry.total_sectors - 1),
            min_size=0,
            max_size=24,
        )
    )
    return spec, geometry, mechanics, batch, head_cyl, head_head, now, candidates


def scalar_price(
    geometry, mechanics, now, head_cyl, head_head, sector,
    extra=None, transfer_sectors=0,
):
    """The one-candidate scalar composition, in service order."""
    cylinder, head, sect = geometry.decompose(sector)
    positioning = mechanics.positioning_time(head_cyl, head_head, cylinder, head)
    target = geometry.angle_of(cylinder, head, sect)
    if extra is None:
        lead = positioning
        t = now + positioning
    else:
        lead = extra + positioning
        t = (now + extra) + positioning
    cost = lead + mechanics.wait_for_slot(t, target)
    if transfer_sectors:
        cost += mechanics.transfer_time(transfer_sectors)
    return cost


class TestPriceCandidatesOracle:
    @given(rigs())
    @_SETTINGS
    def test_matches_scalar_loop_bit_for_bit(self, rig):
        spec, geometry, mechanics, batch, head_cyl, head_head, now, cands = rig
        costs = batch.price_candidates(now, head_cyl, head_head, cands)
        assert len(costs) == len(cands)
        for sector, cost in zip(cands, costs):
            assert cost == scalar_price(
                geometry, mechanics, now, head_cyl, head_head, sector
            )

    @given(rigs(), st.booleans())
    @_SETTINGS
    def test_extra_lead_matches_service_order(self, rig, uniform):
        spec, geometry, mechanics, batch, head_cyl, head_head, now, cands = rig
        scsi = spec.scsi_overhead
        extras = [
            scsi if (uniform or i % 2 == 0) else 0.0
            for i in range(len(cands))
        ]
        costs = batch.price_candidates(
            now, head_cyl, head_head, cands, extra_lead=extras
        )
        for sector, extra, cost in zip(cands, extras, costs):
            assert cost == scalar_price(
                geometry, mechanics, now, head_cyl, head_head, sector,
                extra=extra,
            )

    @given(rigs(), st.integers(min_value=1, max_value=16))
    @_SETTINGS
    def test_transfer_term_matches(self, rig, transfer_sectors):
        spec, geometry, mechanics, batch, head_cyl, head_head, now, cands = rig
        costs = batch.price_candidates(
            now, head_cyl, head_head, cands, transfer_sectors=transfer_sectors
        )
        for sector, cost in zip(cands, costs):
            assert cost == scalar_price(
                geometry, mechanics, now, head_cyl, head_head, sector,
                transfer_sectors=transfer_sectors,
            )

    @given(rigs())
    @_SETTINGS
    def test_empty_candidates(self, rig):
        _, _, _, batch, head_cyl, head_head, now, _ = rig
        assert batch.price_candidates(now, head_cyl, head_head, []) == []


class TestTableBackedPrimitives:
    @given(rigs())
    @_SETTINGS
    def test_positioning_table_matches_mechanics(self, rig):
        spec, geometry, mechanics, batch, head_cyl, head_head, _, _ = rig
        for cylinder in range(geometry.num_cylinders):
            for head in range(geometry.tracks_per_cylinder):
                assert batch.positioning_time(
                    head_cyl, head_head, cylinder, head
                ) == mechanics.positioning_time(
                    head_cyl, head_head, cylinder, head
                )

    @given(rigs())
    @_SETTINGS
    def test_skew_table_matches_geometry(self, rig):
        _, geometry, _, batch, _, _, _, _ = rig
        for cylinder in range(geometry.num_cylinders):
            for head in range(geometry.tracks_per_cylinder):
                for sect in (0, geometry.sectors_per_track - 1):
                    assert batch.angle_of(cylinder, head, sect) == (
                        geometry.angle_of(cylinder, head, sect)
                    )

    @given(rigs())
    @_SETTINGS
    def test_rotational_slot_matches_mechanics(self, rig):
        _, _, mechanics, batch, _, _, now, _ = rig
        assert batch.rotational_slot(now) == mechanics.rotational_slot(now)

    @given(rigs())
    @_SETTINGS
    def test_position_and_arrival_matches_composition(self, rig):
        _, geometry, mechanics, batch, head_cyl, head_head, now, _ = rig
        for cylinder in range(geometry.num_cylinders):
            for head in range(geometry.tracks_per_cylinder):
                positioning, arrival = batch.position_and_arrival(
                    now, head_cyl, head_head, cylinder, head
                )
                expect = mechanics.positioning_time(
                    head_cyl, head_head, cylinder, head
                )
                assert positioning == expect
                assert arrival == mechanics.rotational_slot(now + expect)


class TestRealSpecs:
    """Directed spot checks on the two paper drives (the Hypothesis rigs
    stay tiny for speed; the tables must also be right at full size)."""

    def test_tables_on_paper_drives(self):
        for spec in (HP97560, ST19101):
            geometry = DiskGeometry(spec)
            mechanics = DiskMechanics(spec)
            batch = BatchMechanics(spec, geometry)
            for d in range(geometry.num_cylinders):
                assert batch.seek_by_distance[d] == spec.seek_time(d)
            sectors = [0, 7, geometry.sectors_per_track,
                       geometry.total_sectors - 1,
                       geometry.total_sectors // 2]
            now = 0.0123
            costs = batch.price_candidates(now, 1, 1, sectors)
            for sector, cost in zip(sectors, costs):
                assert cost == scalar_price(
                    geometry, mechanics, now, 1, 1, sector
                )

    def test_mismatched_spec_rejected(self):
        geometry = DiskGeometry(ST19101)
        try:
            BatchMechanics(HP97560, geometry)
        except ValueError:
            pass
        else:  # pragma: no cover
            raise AssertionError("mismatched spec/geometry accepted")
