"""Oracle tests for the bitmap free-space map.

Two layers of defence for the allocator's hottest path:

* :class:`FreeSpaceMap` (per-track integer bitmasks) is pinned to
  :class:`ReferenceFreeSpaceMap` (the seed's per-sector brute force) for
  arbitrary ``mark_used``/``mark_free`` sequences -- counters, iteration,
  and both rotational queries must agree exactly.
* ``nearest_free_run`` is additionally pinned to an *independent* inline
  brute-force oracle over skewed geometries, including ``align`` values
  that do not divide ``sectors_per_track``.  That regime is where the
  seed implementation's ``gap < align`` early exit was wrong: candidate
  gaps are only pairwise congruent modulo ``align`` when ``align`` divides
  the track size, so a sub-``align`` gap found early need not be the
  angular minimum (see ``test_early_exit_regression`` for the concrete
  counterexample the fix is pinned to).
"""

import math

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.disk.freemap import FreeSpaceMap
from repro.disk.geometry import DiskGeometry
from repro.disk.specs import DiskSpec
from tests.disk.reference_freemap import ReferenceFreeSpaceMap

_SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def tiny_spec(n: int, t: int, cylinders: int, head_switch_slots: int = 3) -> DiskSpec:
    """A small drive with ``head_switch_slots``-ish track skew (the skew
    formula adds one slot, so it is always nonzero)."""
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


def brute_force_nearest(freemap, cylinder, head, start_slot, count, align):
    """Independent oracle: enumerate every aligned start and take the
    angular minimum (no early exit, no bit tricks)."""
    geometry = freemap.geometry
    n = geometry.sectors_per_track
    if count > n:
        return None
    base = geometry.track_start(cylinder, head)
    skew = geometry.skew_offset(cylinder, head)
    best = None
    for sect in range(0, n - count + 1, align):
        if not all(
            freemap.is_free(base + sect + i) for i in range(count)
        ):
            continue
        angle = (sect + skew) % n
        gap = (angle - start_slot) % n
        if best is None or gap < best[0]:
            best = (gap, base + sect)
    return best


@st.composite
def marked_freemaps(draw):
    """A small skewed geometry with both map implementations driven through
    the same random mark_used/mark_free sequence."""
    n = draw(st.integers(min_value=4, max_value=24))
    t = draw(st.integers(min_value=1, max_value=4))
    cylinders = draw(st.integers(min_value=1, max_value=3))
    skew_slots = draw(st.integers(min_value=0, max_value=6))
    geometry = DiskGeometry(tiny_spec(n, t, cylinders, skew_slots))
    total = geometry.total_sectors
    fast = FreeSpaceMap(geometry)
    reference = ReferenceFreeSpaceMap(geometry)
    ops = draw(
        st.lists(
            st.tuples(
                st.booleans(),
                st.integers(min_value=0, max_value=total - 1),
                st.integers(min_value=1, max_value=2 * n),
            ),
            max_size=30,
        )
    )
    for free, start, count in ops:
        count = min(count, total - start)
        for fm in (fast, reference):
            if free:
                fm.mark_free(start, count)
            else:
                fm.mark_used(start, count)
    return fast, reference


@given(pair=marked_freemaps())
@_SETTINGS
def test_counters_and_iteration_match_reference(pair):
    fast, reference = pair
    geometry = fast.geometry
    assert fast.free_sectors == reference.free_sectors
    assert fast.utilization == reference.utilization
    for cylinder in range(geometry.num_cylinders):
        assert fast.cylinder_free_count(cylinder) == (
            reference.cylinder_free_count(cylinder)
        )
        for head in range(geometry.tracks_per_cylinder):
            assert fast.track_free_count(cylinder, head) == (
                reference.track_free_count(cylinder, head)
            )
            assert list(fast.free_sector_iter(cylinder, head)) == (
                list(reference.free_sector_iter(cylinder, head))
            )
            for offset in range(geometry.sectors_per_track + 1):
                assert fast.next_used_on_track(cylinder, head, offset) == (
                    reference.next_used_on_track(cylinder, head, offset)
                )
    for sector in range(geometry.total_sectors):
        assert fast.is_free(sector) == reference.is_free(sector)
    assert fast.find_empty_track() == reference.find_empty_track()
    assert fast.tracks_by_free_count() == reference.tracks_by_free_count()


@given(
    pair=marked_freemaps(),
    queries=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=10**6),  # cylinder seed
            st.integers(min_value=0, max_value=10**6),  # head seed
            st.floats(
                min_value=0.0, max_value=100.0, allow_nan=False
            ),  # start slot
            st.integers(min_value=1, max_value=26),  # count
            st.integers(min_value=1, max_value=9),  # align
        ),
        min_size=1,
        max_size=10,
    ),
)
@_SETTINGS
def test_rotational_queries_match_reference_and_oracle(pair, queries):
    fast, reference = pair
    geometry = fast.geometry
    n = geometry.sectors_per_track
    for cyl_seed, head_seed, start_slot, count, align in queries:
        cylinder = cyl_seed % geometry.num_cylinders
        head = head_seed % geometry.tracks_per_cylinder
        got = fast.nearest_free_run(cylinder, head, start_slot, count, align)
        assert got == reference.nearest_free_run(
            cylinder, head, start_slot, count, align
        )
        if count <= n:
            assert got == brute_force_nearest(
                reference, cylinder, head, start_slot, count, align
            )
        if got is not None:
            gap, linear = got
            # ``(angle - start_slot) % n`` can round to exactly ``n`` when
            # start_slot is a denormal-sized positive float and the only
            # candidate sits at its own angle -- the true gap is a hair
            # under one revolution and ``n`` is its nearest float.
            assert 0.0 <= gap <= n
            assert fast.run_is_free(linear, count)
            sect = linear - geometry.track_start(cylinder, head)
            assert sect % align == 0
            assert math.isclose(
                (geometry.angle_of(cylinder, head, sect) - start_slot) % n,
                gap,
            )
        assert fast.has_aligned_run(cylinder, head, count, align) == (
            got is not None
        )
        switch = start_slot % 7.0
        assert fast.nearest_free_in_cylinder(
            cylinder, head, start_slot, count, align, switch
        ) == reference.nearest_free_in_cylinder(
            cylinder, head, start_slot, count, align, switch
        )
        assert fast.cylinder_has_run(cylinder, count, align) == (
            reference.cylinder_has_run(cylinder, count, align)
        )


def test_early_exit_regression():
    """The seed's ``gap < align`` early exit, pinned to its counterexample.

    Track of 10 sectors, no skew, all free, ``align=4`` (which does not
    divide 10): from slot 7 the candidates start at sectors 0, 4, 8 with
    gaps 3, 7, 1.  The old code took sector 0 (gap 3 < align) and stopped;
    the true angular minimum is sector 8 at gap 1.
    """
    geometry = DiskGeometry(tiny_spec(10, 1, 1, head_switch_slots=0))
    assert geometry.skew_offset(0, 0) == 0
    for fm in (FreeSpaceMap(geometry), ReferenceFreeSpaceMap(geometry)):
        gap, sector = fm.nearest_free_run(0, 0, 7.0, 1, align=4)
        assert (gap, sector) == (1.0, 8)


def test_run_is_free_spans_track_boundaries():
    geometry = DiskGeometry(tiny_spec(12, 2, 2))
    fm = FreeSpaceMap(geometry)
    assert fm.run_is_free(10, 6)  # sectors 10..15 cross the 12-sector track
    fm.mark_used(13)
    assert not fm.run_is_free(10, 6)
    assert fm.run_is_free(14, 6)
