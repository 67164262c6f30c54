"""Oracle tests for the mechanics model.

The table-driven :class:`DiskMechanics` promises *bit-for-bit* the same
answers as the closed-form scalar composition it replaced
(:class:`tests.disk.scalar_mechanics.ScalarMechanics` over the validated
:class:`DiskGeometry` calls, one candidate at a time), so every
comparison here is exact ``==`` on floats -- the same discipline as the
``FreeSpaceMap`` vs ``ReferenceFreeSpaceMap`` oracle suite.  Geometries
are generated with random skews, head positions, times (including
rotation- and sector-boundary adversaries and subnormals), and candidate
sets covering empty, single, and multi-track-straddling shapes.

(The file keeps its pre-merge name so the test ids stay put.)
"""

import math

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.disk.geometry import DiskGeometry
from repro.disk.mechanics import DiskMechanics
from repro.disk.specs import DiskSpec, HP97560, ST19101
from tests.disk.scalar_mechanics import ScalarMechanics

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
    """(spec, geometry, scalar reference, mechanics, head_cyl, head_head,
    now, candidate sectors)."""
    n = draw(st.integers(min_value=4, max_value=48))
    t = draw(st.integers(min_value=1, max_value=5))
    cylinders = draw(st.integers(min_value=1, max_value=6))
    switch_slots = draw(st.integers(min_value=0, max_value=5))
    spec = tiny_spec(n, t, cylinders, switch_slots)
    geometry = DiskGeometry(spec, cylinders)
    reference = ScalarMechanics(geometry)
    mechanics = DiskMechanics(geometry)
    head_cyl = draw(st.integers(min_value=0, max_value=cylinders - 1))
    head_head = draw(st.integers(min_value=0, max_value=t - 1))
    # Times: ordinary values plus rotation- and sector-boundary
    # adversaries with both float neighbours, and the subnormal corner
    # (where ulp stops scaling with the clock).
    rotation = spec.rotation_time
    sector_time = spec.sector_time
    boundary = st.one_of(
        st.integers(min_value=0, max_value=100_000).map(
            lambda k: k * rotation
        ),
        st.tuples(
            st.integers(min_value=0, max_value=100_000),
            st.integers(min_value=1, max_value=n - 1),
        ).map(lambda kj: kj[0] * rotation + kj[1] * sector_time),
    )
    now = draw(
        st.one_of(
            st.floats(min_value=0.0, max_value=50.0,
                      allow_nan=False, allow_infinity=False),
            boundary,
            boundary.map(lambda x: math.nextafter(x, math.inf)),
            boundary.map(lambda x: math.nextafter(x, 0.0)),
            st.floats(min_value=0.0, max_value=1e-300),
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
    return spec, geometry, reference, mechanics, head_cyl, head_head, now, candidates


class TestPriceCandidatesOracle:
    @given(rigs())
    @_SETTINGS
    def test_matches_scalar_loop_bit_for_bit(self, rig):
        _, _, reference, mechanics, head_cyl, head_head, now, cands = rig
        costs = mechanics.price_candidates(now, head_cyl, head_head, cands)
        assert len(costs) == len(cands)
        for sector, cost in zip(cands, costs):
            assert cost == reference.price(now, head_cyl, head_head, sector)

    @given(rigs(), st.booleans())
    @_SETTINGS
    def test_extra_lead_matches_service_order(self, rig, uniform):
        spec, _, reference, mechanics, head_cyl, head_head, now, cands = rig
        scsi = spec.scsi_overhead
        extras = [
            scsi if (uniform or i % 2 == 0) else 0.0
            for i in range(len(cands))
        ]
        costs = mechanics.price_candidates(
            now, head_cyl, head_head, cands, extra_lead=extras
        )
        for sector, extra, cost in zip(cands, extras, costs):
            assert cost == reference.price(
                now, head_cyl, head_head, sector, extra=extra
            )

    @given(rigs())
    @_SETTINGS
    def test_empty_candidates(self, rig):
        _, _, _, mechanics, head_cyl, head_head, now, _ = rig
        assert mechanics.price_candidates(now, head_cyl, head_head, []) == []
        assert mechanics.price_candidates(
            now, head_cyl, head_head, [], extra_lead=[]
        ) == []

    @given(rigs())
    @_SETTINGS
    def test_three_copies_agree(self, rig):
        """The slot arithmetic is written out three times (the method and
        the two pricing loops); this fails if one of them drifts.  The
        no-lead loop against the lead loop with all-zero leads is the
        pairing no reference comparison covers."""
        _, geometry, _, mechanics, head_cyl, head_head, now, cands = rig
        no_lead = mechanics.price_candidates(now, head_cyl, head_head, cands)
        zero_lead = mechanics.price_candidates(
            now, head_cyl, head_head, cands, extra_lead=[0.0] * len(cands)
        )
        composed = []
        for sector in cands:
            cylinder, head, sect = geometry.decompose(sector)
            positioning = mechanics.positioning_time(
                head_cyl, head_head, cylinder, head
            )
            composed.append(
                positioning
                + mechanics.wait_for_slot(
                    now + positioning, mechanics.angle_of(cylinder, head, sect)
                )
            )
        assert no_lead == zero_lead == composed


class TestTableBackedPrimitives:
    @given(rigs())
    @_SETTINGS
    def test_positioning_table_matches_mechanics(self, rig):
        _, geometry, reference, mechanics, head_cyl, head_head, _, _ = rig
        for cylinder in range(geometry.num_cylinders):
            for head in range(geometry.tracks_per_cylinder):
                assert mechanics.positioning_time(
                    head_cyl, head_head, cylinder, head
                ) == reference.positioning_time(
                    head_cyl, head_head, cylinder, head
                )

    @given(rigs())
    @_SETTINGS
    def test_skew_table_matches_geometry(self, rig):
        _, geometry, _, mechanics, _, _, _, _ = rig
        for cylinder in range(geometry.num_cylinders):
            for head in range(geometry.tracks_per_cylinder):
                for sect in (0, geometry.sectors_per_track - 1):
                    assert mechanics.angle_of(cylinder, head, sect) == (
                        geometry.angle_of(cylinder, head, sect)
                    )

    @given(rigs())
    @_SETTINGS
    def test_rotational_slot_matches_mechanics(self, rig):
        _, _, reference, mechanics, _, _, now, _ = rig
        slot = mechanics.rotational_slot(now)
        assert slot == reference.rotational_slot(now)
        assert type(slot) is float

    @given(rigs())
    @_SETTINGS
    def test_position_and_arrival_matches_composition(self, rig):
        """The allocator's track query: position the arm, then ask where
        the platter is."""
        _, geometry, reference, mechanics, head_cyl, head_head, now, _ = rig
        for cylinder in range(geometry.num_cylinders):
            for head in range(geometry.tracks_per_cylinder):
                positioning = mechanics.positioning_time(
                    head_cyl, head_head, cylinder, head
                )
                expect = reference.positioning_time(
                    head_cyl, head_head, cylinder, head
                )
                assert positioning == expect
                assert mechanics.rotational_slot(
                    now + positioning
                ) == reference.rotational_slot(now + expect)

    def test_subnormal_corner(self):
        """Below the smallest normal float ``ulp`` stops scaling with the
        clock, so the cheap ``rem <= now * 1e-15`` gate alone would be
        wrong there; the exact test must still decide."""
        geometry = DiskGeometry(ST19101)
        reference = ScalarMechanics(geometry)
        mechanics = DiskMechanics(geometry)
        for now in (0.0, 5e-324, 1e-323, 1e-320, 2.2e-308, 4.5e-308, 1e-307):
            assert mechanics.rotational_slot(now) == (
                reference.rotational_slot(now)
            )
            for kw in ({}, {"extra_lead": [0.0]}):
                assert mechanics.price_candidates(now, 0, 0, [0], **kw) == [
                    reference.price(now, 0, 0, 0)
                ]


class TestRealSpecs:
    """Directed spot checks on the two paper drives (the Hypothesis rigs
    stay tiny for speed; the tables must also be right at full size)."""

    def test_tables_on_paper_drives(self):
        for spec in (HP97560, ST19101):
            geometry = DiskGeometry(spec)
            reference = ScalarMechanics(geometry)
            mechanics = DiskMechanics(geometry)
            for d in range(geometry.num_cylinders):
                assert mechanics.seek_by_distance[d] == spec.seek_time(d)
            assert mechanics.skew_by_track is geometry.skew_by_track
            sectors = [0, 7, geometry.sectors_per_track,
                       geometry.total_sectors - 1,
                       geometry.total_sectors // 2]
            now = 0.0123
            costs = mechanics.price_candidates(now, 1, 1, sectors)
            for sector, cost in zip(sectors, costs):
                assert cost == reference.price(now, 1, 1, sector)
