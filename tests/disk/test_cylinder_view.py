"""The free map's angle-major cylinder view and the query it answers.

``FreeSpaceMap`` keeps, beside its per-track masks, one integer per
cylinder with bit ``angle * tracks_per_cylinder + head`` set when the
sector under ``head`` at platter angle ``angle`` is free, and answers
``nearest_free_in_cylinder`` / ``cylinder_has_run`` from it with a fold
and one or two find-first-sets.  Three things are pinned here:

* the view is *exactly* the skew-rotated transpose of the track masks
  after any sequence of marks and quarantines (a rule-based machine over
  skewed geometries, the two paper drives included);
* the query agrees with ``ReferenceFreeSpaceMap``'s loop over the heads
  for every ``current_head`` (out-of-range ones included), start slots
  and head-switch penalties of every kind, and the shapes the data and
  map allocators use;
* the tie-breaks and the early return, case by case;
* the compactor's *hole* query (``nearest_hole_in_cylinder``: the same
  view less the lanes of completely free tracks and of one skipped
  track, asked from two arrival angles) agrees with a loop of
  ``nearest_free_run`` over the tracks.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.disk.freemap import FreeSpaceMap
from repro.disk.geometry import DiskGeometry
from repro.disk.specs import HP97560, ST19101
from tests.disk.reference_freemap import ReferenceFreeSpaceMap
from tests.disk.test_freemap_oracle import tiny_spec

#: Skewed geometries: HP97560's 72 x 19 and ST19101's 256 x 16 (two
#: cylinders each, so the cylinder skew shows), the 10-sector track of
#: ``test_early_exit_regression`` (align 4 does not divide it), a
#: one-head drive and one whose skew exceeds a quarter track.
GEOMETRIES = {
    "hp97560": DiskGeometry(HP97560, 2),
    "st19101": DiskGeometry(ST19101, 2),
    "ten-sector": DiskGeometry(tiny_spec(10, 3, 3, head_switch_slots=2)),
    "one-head": DiskGeometry(tiny_spec(12, 1, 4, head_switch_slots=4)),
    "wide-skew": DiskGeometry(tiny_spec(16, 5, 2, head_switch_slots=6)),
}

#: ``(count, align)``: the map allocator's, the data allocator's, an
#: unaligned odd run, and one whose ``align`` need not divide the track.
SHAPES = ((1, 1), (8, 8), (3, 1), (4, 4))


def transposed(freemap: FreeSpaceMap, cylinder: int) -> int:
    """The cylinder view as the track masks define it, bit by bit."""
    geometry = freemap.geometry
    n = geometry.sectors_per_track
    tpc = geometry.tracks_per_cylinder
    view = 0
    for head in range(tpc):
        base = geometry.track_start(cylinder, head)
        skew = geometry.skew_offset(cylinder, head)
        for sector in freemap.free_sector_iter(cylinder, head):
            view |= 1 << ((sector - base + skew) % n * tpc + head)
    return view


class CylinderViewMachine(RuleBasedStateMachine):
    """Arbitrary marks and quarantines -- unaligned, track-straddling,
    partly overlapping, whole-disk -- against the reference map, with
    the transpose invariant checked after every step."""

    @initialize(name=st.sampled_from(sorted(GEOMETRIES)))
    def build(self, name):
        self.geometry = GEOMETRIES[name]
        self.fast = FreeSpaceMap(self.geometry)
        self.reference = ReferenceFreeSpaceMap(self.geometry)

    def _run(self, data):
        total = self.geometry.total_sectors
        start = data.draw(st.integers(0, total - 1), label="start")
        longest = min(3 * self.geometry.sectors_per_track, total - start)
        return start, data.draw(st.integers(1, longest), label="count")

    @rule(data=st.data(), free=st.booleans())
    def mark(self, data, free):
        start, count = self._run(data)
        for freemap in (self.fast, self.reference):
            (freemap.mark_free if free else freemap.mark_used)(start, count)

    @rule(free=st.booleans())
    def mark_whole_disk(self, free):
        total = self.geometry.total_sectors
        for freemap in (self.fast, self.reference):
            (freemap.mark_free if free else freemap.mark_used)(0, total)

    @rule(data=st.data())
    def quarantine(self, data):
        start, count = self._run(data)
        count = min(count, 5)
        for freemap in (self.fast, self.reference):
            freemap.quarantine(start, count)

    @rule(data=st.data())
    def set_quarantined(self, data):
        total = self.geometry.total_sectors
        sectors = data.draw(
            st.lists(st.integers(0, total - 1), max_size=6, unique=True)
        )
        for freemap in (self.fast, self.reference):
            freemap.set_quarantined(sectors)

    @invariant()
    def view_is_the_transpose_of_the_track_masks(self):
        fast, reference, geometry = self.fast, self.reference, self.geometry
        assert fast.free_sectors == reference.free_sectors
        assert fast.quarantined_sectors() == reference.quarantined_sectors()
        assert not any(fast.is_free(s) for s in fast.quarantined_sectors())
        for cylinder in range(geometry.num_cylinders):
            for head in range(geometry.tracks_per_cylinder):
                assert list(fast.free_sector_iter(cylinder, head)) == list(
                    reference.free_sector_iter(cylinder, head)
                )
            assert fast._cyl_masks[cylinder] == transposed(fast, cylinder)


CylinderViewMachine.TestCase.settings = settings(
    max_examples=40,
    stateful_step_count=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
TestCylinderViewInvariant = CylinderViewMachine.TestCase


def fragmented_pair(geometry, seed, utilization, unit):
    """Both maps with ``utilization`` of the ``unit``-sector blocks used,
    plus a few unaligned holes and plugs."""
    rng = random.Random(seed)
    fast, reference = FreeSpaceMap(geometry), ReferenceFreeSpaceMap(geometry)
    total = geometry.total_sectors
    blocks = total // unit
    for block in rng.sample(range(blocks), int(blocks * utilization)):
        for freemap in (fast, reference):
            freemap.mark_used(block * unit, unit)
    for _ in range(6):
        start, count = rng.randrange(total - 3), rng.randint(1, 3)
        free = rng.random() < 0.5
        for freemap in (fast, reference):
            (freemap.mark_free if free else freemap.mark_used)(start, count)
    return fast, reference


@pytest.mark.parametrize("name", sorted(GEOMETRIES))
@given(
    seed=st.integers(0, 2**32),
    utilization=st.sampled_from([0.0, 0.5, 0.8, 0.95, 0.99, 1.0]),
    unit=st.sampled_from([1, 2, 8]),
    whole=st.integers(0, 3),
    fraction=st.sampled_from([0.0, 0.25, 0.5, 0.999]),
    penalty=st.sampled_from(["zero", "fractional", "whole", "beyond"]),
)
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_cylinder_query_matches_the_loop_over_heads(
    name, seed, utilization, unit, whole, fraction, penalty
):
    geometry = GEOMETRIES[name]
    n = geometry.sectors_per_track
    tpc = geometry.tracks_per_cylinder
    fast, reference = fragmented_pair(geometry, seed, utilization, unit)
    rng = random.Random(seed)
    # Start slots inside the track, on its last slot, and a revolution
    # or more past it; whole and fractional.
    start_slot = [rng.randrange(n), n - 1, n + rng.randrange(n), 3 * n][
        whole
    ] + fraction
    head_switch_slots = {
        "zero": 0.0,
        "fractional": rng.random() * n / 4,
        "whole": float(rng.randrange(1, n)),
        "beyond": n + rng.random() * n,
    }[penalty]
    for cylinder in range(geometry.num_cylinders):
        for count, align in SHAPES:
            assert fast.cylinder_has_run(cylinder, count, align) == (
                reference.cylinder_has_run(cylinder, count, align)
            )
            # Every head as the current one, and two that are no head at
            # all (every lane then pays the penalty).
            for current_head in range(-1, tpc + 1):
                query = (
                    cylinder, current_head, start_slot, count, align,
                    head_switch_slots,
                )
                assert fast.nearest_free_in_cylinder(*query) == (
                    reference.nearest_free_in_cylinder(*query)
                ), query


class TestTieBreaks:
    """The loop over heads kept the first head at the lowest cost, and
    raced the current track against every other head's penalised run.
    Each case leaves free exactly the sectors it names."""

    @staticmethod
    def maps(free_at):
        """A 12 x 4 cylinder, all used except one sector per ``(head,
        angle)`` in ``free_at``."""
        geometry = DiskGeometry(tiny_spec(12, 4, 1, head_switch_slots=3))
        pair = (FreeSpaceMap(geometry), ReferenceFreeSpaceMap(geometry))
        for freemap in pair:
            freemap.mark_used(0, geometry.total_sectors)
            for head, angle in free_at:
                freemap.mark_free(
                    geometry.track_start(0, head)
                    + geometry.sector_at_angle(0, head, angle)
                )
        return pair

    @staticmethod
    def ask(pair, current_head, start_slot, head_switch_slots):
        fast, reference = pair
        answer = fast.nearest_free_in_cylinder(
            0, current_head, start_slot, 1, 1, head_switch_slots
        )
        assert answer == reference.nearest_free_in_cylinder(
            0, current_head, start_slot, 1, 1, head_switch_slots
        )
        cost, _sector, head = answer
        return cost, head

    def test_two_other_heads_at_one_angle_lower_head_wins(self):
        pair = self.maps([(3, 5), (1, 5)])
        assert self.ask(pair, 2, 0.0, 2.0) == (5.0, 1)

    def test_current_head_ties_with_a_lower_head_lower_wins(self):
        # Current head 2: gap 5.  Head 1, from slot 2: penalty 2 + gap 3.
        pair = self.maps([(2, 5), (1, 5)])
        assert self.ask(pair, 2, 0.0, 2.0) == (5.0, 1)

    def test_current_head_ties_with_a_higher_head_current_wins(self):
        pair = self.maps([(2, 5), (3, 5)])
        assert self.ask(pair, 2, 0.0, 2.0) == (5.0, 2)

    def test_cost_equal_to_the_penalty_does_not_return_early(self):
        # Current head 2 costs exactly the penalty; head 0 has a run at
        # the post-settle slot itself (gap 0), ties, and is lower.
        pair = self.maps([(2, 2), (0, 2)])
        assert self.ask(pair, 2, 0.0, 2.0) == (2.0, 0)

    def test_cost_under_the_penalty_is_the_current_track(self):
        pair = self.maps([(2, 1), (0, 2)])
        assert self.ask(pair, 2, 0.0, 2.0) == (1.0, 2)

    def test_run_inside_the_settle_window_waits_a_revolution(self):
        # Head 0's only run passes at angle 1, inside the 2-slot settle
        # window: reachable after a full turn (2 + 11), so the current
        # track's far run (gap 9) wins.
        pair = self.maps([(2, 9), (0, 1)])
        assert self.ask(pair, 2, 0.0, 2.0) == (9.0, 2)


def holes_by_loop(reference, cylinder, current_head, own_slot, other_slot,
                  count, align, skip_head):
    """``nearest_hole_in_cylinder`` as a loop of ``nearest_free_run``
    over the tracks of the cylinder, on the brute-force map."""
    geometry = reference.geometry
    n = geometry.sectors_per_track
    own = other = None
    best = None
    for head in range(geometry.tracks_per_cylinder):
        if head == skip_head:
            continue
        if reference.track_free_count(cylinder, head) == n:
            continue  # hole-plugging never consumes an empty track
        slot = own_slot if head == current_head else other_slot
        found = reference.nearest_free_run(cylinder, head, slot, count, align)
        if found is None:
            continue
        if head == current_head:
            own = found
        elif best is None or (found[0], head) < best:
            best = (found[0], head)
            other = found
    return own, other


class AnsweredOnce:
    """The brute-force map's track answers, each computed once.

    ``holes_by_loop`` asks the same ``(cylinder, head, slot, count,
    align)`` question for every ``skip_head``, and the map does not
    change while one example's queries run."""

    def __init__(self, reference):
        self.geometry = reference.geometry
        self._reference = reference
        self._free_counts = {}
        self._runs = {}

    def track_free_count(self, cylinder, head):
        key = (cylinder, head)
        if key not in self._free_counts:
            self._free_counts[key] = self._reference.track_free_count(
                cylinder, head
            )
        return self._free_counts[key]

    def nearest_free_run(self, cylinder, head, slot, count, align):
        key = (cylinder, head, slot, count, align)
        if key not in self._runs:
            self._runs[key] = self._reference.nearest_free_run(
                cylinder, head, slot, count, align
            )
        return self._runs[key]


@pytest.mark.parametrize("name", sorted(GEOMETRIES))
@given(
    seed=st.integers(0, 2**32),
    utilization=st.sampled_from([0.3, 0.6, 0.9, 0.99]),
    unit=st.sampled_from([1, 2, 8]),
    own_fraction=st.sampled_from([0.0, 0.25, 0.999]),
    other_fraction=st.sampled_from([0.0, 0.5, 0.999]),
)
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_hole_query_matches_the_loop_over_tracks(
    name, seed, utilization, unit, own_fraction, other_fraction
):
    geometry = GEOMETRIES[name]
    n = geometry.sectors_per_track
    tpc = geometry.tracks_per_cylinder
    fast, reference = fragmented_pair(geometry, seed, utilization, unit)
    rng = random.Random(seed)
    # Empty some tracks, fill some, and retire a sector or two: the lanes
    # the query must leave out, and tracks that can never be empty again.
    for _ in range(rng.randrange(1, 4)):
        cylinder, head = rng.randrange(geometry.num_cylinders), rng.randrange(tpc)
        free = rng.random() < 0.6
        for freemap in (fast, reference):
            (freemap.mark_free if free else freemap.mark_used)(
                geometry.track_start(cylinder, head), n
            )
    if rng.random() < 0.5:
        sector = rng.randrange(geometry.total_sectors)
        for freemap in (fast, reference):
            freemap.quarantine(sector)
    own_slot = rng.randrange(2 * n) + own_fraction
    other_slot = rng.randrange(n) + other_fraction
    answers = AnsweredOnce(reference)
    for cylinder in range(geometry.num_cylinders):
        for count, align in SHAPES:
            for current_head in range(-1, tpc + 1):
                for skip_head in (None, *range(tpc)):
                    query = (
                        cylinder, current_head, own_slot, other_slot,
                        count, align, skip_head,
                    )
                    assert fast.nearest_hole_in_cylinder(*query) == (
                        holes_by_loop(answers, *query)
                    ), query


def test_hole_query_rejects_what_the_other_queries_reject():
    freemap = FreeSpaceMap(GEOMETRIES["ten-sector"])
    for count, align in ((0, 1), (-1, 1), (1, 0), (2, -3)):
        with pytest.raises(ValueError, match="count and align must be positive"):
            freemap.nearest_hole_in_cylinder(0, 0, 0.0, 0.0, count, align)
    for cylinder in (-1, 3):
        with pytest.raises(ValueError, match=f"cylinder {cylinder} out of range"):
            freemap.nearest_hole_in_cylinder(cylinder, 0, 0.0, 0.0, 1)
    for head in (-1, 3):
        with pytest.raises(ValueError, match=f"head {head} out of range"):
            freemap.nearest_hole_in_cylinder(0, 0, 0.0, 0.0, 1, 1, head)
    # A run longer than a track, or than the cylinder has free: no hole.
    assert freemap.nearest_hole_in_cylinder(0, 0, 0.0, 0.0, 11) == (None, None)
    # An all-free cylinder has no *hole* either: every lane is left out.
    assert freemap.nearest_hole_in_cylinder(0, 0, 0.0, 0.0, 1) == (None, None)
    freemap.mark_used(12, 1)  # head 1, sector 2
    own, other = freemap.nearest_hole_in_cylinder(0, 0, 0.0, 0.0, 1)
    assert own is None and other is not None and 10 <= other[1] < 20
