"""Brute-force cost oracle for the eager allocator's NEAREST policy.

``EagerAllocator._choose_nearest`` promises the *globally cheapest* free
run -- the same closed-form time the disk engine will recompute when the
write is issued.  The oracle here enumerates every aligned free run on the
whole disk, prices each exactly as ``Disk._position_and_transfer`` would
(``positioning = max(seek, head_switch)`` followed by the rotational wait
from the post-positioning slot), and asserts the allocator's pick is
cost-minimal.

Two seed bugs are pinned by deterministic regression cases:

* **Penalized-head run selection** -- ``nearest_free_in_cylinder`` queried
  each non-current track at the head's *arrival* slot and only afterwards
  added a full revolution when the angularly-nearest run fell inside the
  head-switch settle window.  The angularly-nearest run is the only one it
  ever saw, so a second run on the same track sitting just *after* the
  settle window (reachable this revolution, nearly a full revolution
  cheaper) was never considered.
* **Unsound seek prune** -- the cylinder sweep stopped at the first
  distance whose seek met the incumbent cost, but the two-piece seek curve
  (``a + b*sqrt(d)`` below the boundary, ``c + e*d`` at and beyond) need
  not be monotone in ``d``: a spec whose long piece undercuts the short
  piece at the boundary makes far cylinders cheaper than nearer ones, and
  the early ``break`` never reached them.
"""

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.disk.disk import Disk
from repro.disk.freemap import FreeSpaceMap
from repro.disk.specs import DiskSpec
from repro.vlog.allocator import AllocationPolicy, DiskFullError, EagerAllocator
from tests.disk.reference_freemap import ReferenceFreeSpaceMap

_SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def oracle_spec(
    n: int,
    t: int,
    cylinders: int,
    head_switch_slots: float = 3.0,
    short=(0.30e-3, 0.20e-3),
    long=(4.00e-3, 0.0008e-3),
    boundary: int = 400,
) -> DiskSpec:
    """A small drive with an exact ``head_switch_slots`` settle window and a
    configurable two-piece seek curve."""
    rpm = 10000.0
    sector_time = (60.0 / rpm) / n
    return DiskSpec(
        name=f"ORACLE{n}x{t}x{cylinders}",
        sectors_per_track=n,
        tracks_per_cylinder=t,
        num_cylinders=cylinders,
        sim_cylinders=cylinders,
        rpm=rpm,
        head_switch_time=head_switch_slots * sector_time,
        scsi_overhead=1e-4,
        sector_bytes=512,
        seek_short_a=short[0],
        seek_short_b=short[1],
        seek_long_c=long[0],
        seek_long_e=long[1],
        seek_boundary=boundary,
    )


def price(disk: Disk, sector: int) -> float:
    """Seconds until a write landing at ``sector`` could begin, priced
    exactly as ``Disk._position_and_transfer`` will: positioning first
    (max of seek and head switch), then the rotational wait measured from
    the post-positioning instant."""
    geometry = disk.geometry
    cylinder, head, sect = geometry.decompose(sector)
    positioning = disk.mechanics.positioning_time(
        disk.head_cylinder, disk.head_head, cylinder, head
    )
    target = geometry.angle_of(cylinder, head, sect)
    rotation = disk.mechanics.wait_for_slot(disk.clock.now + positioning, target)
    return positioning + rotation


def cheapest_run(disk: Disk, freemap, count: int, align: int):
    """Independent oracle: price every aligned free run on the disk and
    return ``(cost, sector)`` for the cheapest, or ``None``."""
    geometry = disk.geometry
    n = geometry.sectors_per_track
    best = None
    for cylinder in range(geometry.num_cylinders):
        for head in range(geometry.tracks_per_cylinder):
            base = geometry.track_start(cylinder, head)
            for sect in range(0, n - count + 1, align):
                linear = base + sect
                if not all(freemap.is_free(linear + i) for i in range(count)):
                    continue
                cost = price(disk, linear)
                if best is None or cost < best[0]:
                    best = (cost, linear)
    return best


def make_stack(spec: DiskSpec, block_sectors: int):
    disk = Disk(spec, store_data=False)
    freemap = FreeSpaceMap(disk.geometry)
    allocator = EagerAllocator(
        disk,
        freemap,
        block_sectors=block_sectors,
        policy=AllocationPolicy.NEAREST,
    )
    return disk, freemap, allocator


def free_run_with_gap_at_least(freemap, disk, cylinder, head, slot, lo, align):
    """Free (only) the aligned run on one track whose angular gap from
    ``slot`` is the smallest value >= ``lo``; returns (gap, sector)."""
    geometry = disk.geometry
    n = geometry.sectors_per_track
    base = geometry.track_start(cylinder, head)
    best = None
    for sect in range(0, n - align + 1, align):
        gap = (geometry.angle_of(cylinder, head, sect) - slot) % n
        if gap >= lo and (best is None or gap < best[0]):
            best = (gap, base + sect)
    assert best is not None
    freemap.mark_free(best[1], align)
    return best


def free_run_with_gap_below(freemap, disk, cylinder, head, slot, hi, align):
    """Free (only) the aligned run on one track whose angular gap from
    ``slot`` is the smallest value < ``hi``; returns (gap, sector)."""
    geometry = disk.geometry
    n = geometry.sectors_per_track
    base = geometry.track_start(cylinder, head)
    best = None
    for sect in range(0, n - align + 1, align):
        gap = (geometry.angle_of(cylinder, head, sect) - slot) % n
        if gap < hi and (best is None or gap < best[0]):
            best = (gap, base + sect)
    assert best is not None
    freemap.mark_free(best[1], align)
    return best


class TestPenalizedHeadRegression:
    """The settle-window run-selection bug, on ST19101-like proportions
    (head switch ~20 sector slots)."""

    BLOCK = 8

    def _build(self):
        spec = oracle_spec(n=64, t=2, cylinders=2, head_switch_slots=20.0)
        disk, freemap, allocator = make_stack(spec, self.BLOCK)
        # Everything used; candidates only on (cyl 0, head 1), the
        # penalized track (the head sits on head 0).
        freemap.mark_used(0, disk.geometry.total_sectors)
        arrival = disk.slot_after(0.0)
        # One run inside the settle window (unreachable this revolution)
        # and one just after it (reachable, far cheaper).
        decoy = free_run_with_gap_below(
            freemap, disk, 0, 1, arrival, 20.0, self.BLOCK
        )
        winner = free_run_with_gap_at_least(
            freemap, disk, 0, 1, arrival, 20.0, self.BLOCK
        )
        assert decoy[0] < 20.0 <= winner[0]
        return disk, freemap, allocator, winner

    def test_nearest_picks_reachable_run(self):
        disk, freemap, allocator, winner = self._build()
        oracle = cheapest_run(disk, freemap, self.BLOCK, self.BLOCK)
        assert oracle is not None and oracle[1] == winner[1]
        chosen = allocator.allocate() * self.BLOCK
        assert price(disk, chosen) <= oracle[0] + 1e-12

    @pytest.mark.parametrize("cls", [FreeSpaceMap, ReferenceFreeSpaceMap])
    def test_nearest_free_in_cylinder_settle_window(self, cls):
        """Direct unit pin of the in-cylinder query on both map
        implementations: the post-settle run must win, and the reported
        cost must be the slots-from-start_slot delay the allocator prices."""
        spec = oracle_spec(n=64, t=2, cylinders=1, head_switch_slots=20.0)
        disk = Disk(spec, store_data=False)
        freemap = cls(disk.geometry)
        freemap.mark_used(0, disk.geometry.total_sectors)
        start = 0.0
        decoy = free_run_with_gap_below(freemap, disk, 0, 1, start, 20.0, 8)
        winner = free_run_with_gap_at_least(freemap, disk, 0, 1, start, 20.0, 8)
        found = freemap.nearest_free_in_cylinder(
            0, 0, start, 8, align=8, head_switch_slots=20.0
        )
        assert found is not None
        cost, linear, head = found
        assert (linear, head) == (winner[1], 1)
        assert math.isclose(cost, winner[0])
        # The decoy would only be reachable a revolution later.
        assert cost < decoy[0] + 64.0


class TestSeekPruneRegression:
    """The unsound ``seek >= best_cost`` break, on a legal two-piece curve
    whose long piece undercuts the short piece at the boundary."""

    BLOCK = 8

    def _build(self):
        # short(99) = 0.3 + 0.2*sqrt(99) ~ 2.29 ms; long(d) = 1.0 ms + 1 us/cyl,
        # so every cylinder at distance >= 100 is a cheaper seek than
        # distances in the 40s and beyond.
        spec = oracle_spec(
            n=256,
            t=1,
            cylinders=140,
            head_switch_slots=3.0,
            short=(0.30e-3, 0.20e-3),
            long=(1.00e-3, 1.0e-6),
            boundary=100,
        )
        disk, freemap, allocator = make_stack(spec, self.BLOCK)
        freemap.mark_used(0, disk.geometry.total_sectors)
        # Near decoy at distance 5 whose rotational delay prices it between
        # the far candidate and the short-piece seek ceiling -- so the
        # pre-fix sweep adopts it, then breaks inside the short piece and
        # never reaches distance >= 100.  Gap >= 28 slots puts the decoy at
        # ~1.4-1.6 ms: above the far winner (< 1.3 ms) yet below seeks from
        # distance ~45 onwards.
        seek5 = disk.spec.seek_time(5)
        arrival5 = disk.slot_after(seek5)
        decoy = free_run_with_gap_at_least(
            freemap, disk, 5, 0, arrival5, 28.0, self.BLOCK
        )
        # Far winner: a whole free track at distance 110.
        base = disk.geometry.track_start(110, 0)
        freemap.mark_free(base, disk.geometry.sectors_per_track)
        return disk, freemap, allocator, decoy

    def test_scan_reaches_past_the_boundary(self):
        disk, freemap, allocator, decoy = self._build()
        decoy_sector = decoy[1]
        oracle = cheapest_run(disk, freemap, self.BLOCK, self.BLOCK)
        assert oracle is not None
        # Sanity: the scenario really does hide the winner beyond a
        # more-expensive short-piece region.
        far_cylinder = disk.geometry.decompose(oracle[1])[0]
        assert far_cylinder >= 100
        assert price(disk, decoy_sector) > oracle[0]
        chosen = allocator.allocate() * self.BLOCK
        assert price(disk, chosen) <= oracle[0] + 1e-12


@st.composite
def allocation_scenes(draw):
    """A random skewed geometry, head state, and free pattern."""
    n = 8 * draw(st.integers(min_value=2, max_value=6))
    t = draw(st.integers(min_value=1, max_value=3))
    cylinders = draw(st.integers(min_value=1, max_value=6))
    switch_slots = draw(st.floats(min_value=0.0, max_value=12.0))
    block = draw(st.sampled_from([1, 2, 4, 8]))
    spec = oracle_spec(n, t, cylinders, head_switch_slots=switch_slots)
    disk, freemap, allocator = make_stack(spec, block)
    total = disk.geometry.total_sectors
    used = draw(
        st.lists(
            st.integers(min_value=0, max_value=total - 1),
            min_size=total // 2,
            max_size=2 * total,
        )
    )
    for sector in used:
        if freemap.is_free(sector):
            freemap.mark_used(sector, 1)
    disk.head_cylinder = draw(st.integers(min_value=0, max_value=cylinders - 1))
    disk.head_head = draw(st.integers(min_value=0, max_value=t - 1))
    disk.clock.advance(draw(st.floats(min_value=0.0, max_value=0.05)))
    return disk, freemap, allocator, block


@_SETTINGS
@given(allocation_scenes())
def test_nearest_is_cost_minimal(scene):
    """NEAREST == the brute-force minimum over every aligned free run."""
    disk, freemap, allocator, block = scene
    oracle = cheapest_run(disk, freemap, block, block)
    try:
        chosen = allocator.allocate() * block
    except DiskFullError:
        assert oracle is None
        return
    assert oracle is not None
    assert price(disk, chosen) <= oracle[0] + 1e-9
