"""The compactor's per-cylinder hole search against the per-track one.

``reference_find_hole.py`` is the search ``FreeSpaceCompactor._find_hole``
replaced: one ``nearest_free_run`` per partial track in range.  The new
search asks ``FreeSpaceMap.nearest_hole_in_cylinder`` once per cylinder and
ranks its two answers with the same cost expressions and the same ``(cost,
track index)`` rule, so on any free map, arm position and clock reading
both must name the same block (DESIGN.md section 8, "The hole query").

Each Hypothesis example expands a seed into a whole drive state: per
track, one of eight occupancy shapes (empty, full, fewer than a block's
worth free, one aligned hole, random blocks, random sectors, the mirror of
the track above, the mirror of the cylinder on the other side of the
arm); optionally a few quarantined sectors; the arm on a drawn cylinder
and head; a clock reading drawn as often from the sector-boundary grid
(where candidates tie) as from the continuum; a drawn source track.  Two
of the geometries have a track skew of one block and a cylinder skew of a
whole track, so equal-cost ties across heads at one angle and across the
``(lo, hi)`` cylinder pair are common rather than accidental; the
deterministic cases below pin each tie-break by construction.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.disk.disk import Disk
from repro.disk.specs import ST19101, DiskSpec
from repro.vlog.compactor import FreeSpaceCompactor
from repro.vlog.vld import VirtualLogDisk
from tests.vlog.reference_find_hole import reference_find_hole


def hole_spec(
    n: int,
    t: int,
    cylinders: int,
    switch_slots: float,
    min_seek_slots: float,
) -> DiskSpec:
    """A small drive whose head switch and one-cylinder seek are given in
    sector slots (track skew = ceil(switch) + 1, cylinder skew =
    ceil(min seek) + 1)."""
    rpm = 10000.0
    sector_time = (60.0 / rpm) / n
    return DiskSpec(
        name=f"HOLE{n}x{t}x{cylinders}",
        sectors_per_track=n,
        tracks_per_cylinder=t,
        num_cylinders=cylinders,
        sim_cylinders=cylinders,
        rpm=rpm,
        head_switch_time=switch_slots * sector_time,
        scsi_overhead=1e-4,
        sector_bytes=512,
        seek_short_a=(min_seek_slots - 1.0) * sector_time,
        seek_short_b=1.0 * sector_time,
        seek_long_c=4e-3,
        seek_long_e=8e-7,
        seek_boundary=400,
    )


#: name -> spec.  ``aligned-*``: track skew 8 (= one block) and cylinder
#: skew 32 (= the whole track), so aligned holes on different heads and on
#: different cylinders sit at the same platter angles.
SPECS = {
    "aligned-3-heads": hole_spec(32, 3, 7, 6.5, 30.5),
    "aligned-1-head": hole_spec(32, 1, 9, 6.5, 30.5),
    "skewed-5-heads": hole_spec(64, 5, 5, 3.0, 11.0),
    "long-switch": hole_spec(32, 4, 6, 20.0, 5.0),
    "two-cylinders": hole_spec(48, 2, 2, 2.0, 9.0),
}

_SHAPES = (
    "empty", "full", "scraps", "one-hole", "blocks", "sectors",
    "mirror-head", "mirror-cylinder",
)


def _build(spec: DiskSpec) -> FreeSpaceCompactor:
    return FreeSpaceCompactor(VirtualLogDisk(Disk(spec)))


def _fill_track(rng, freemap, base: int, n: int, shape: str) -> None:
    """Occupy one (all-free) track according to ``shape``."""
    if shape == "empty":
        return
    if shape == "full":
        freemap.mark_used(base, n)
    elif shape == "scraps":
        # Fewer than a block's worth free, scattered.
        freemap.mark_used(base, n)
        for sect in rng.sample(range(n), rng.randrange(1, 8)):
            freemap.mark_free(base + sect, 1)
    elif shape == "one-hole":
        freemap.mark_used(base, n)
        freemap.mark_free(base + 8 * rng.randrange(n // 8), 8)
    elif shape == "blocks":
        for block in range(n // 8):
            if rng.random() < 0.6:
                freemap.mark_used(base + 8 * block, 8)
    else:  # "sectors": map records between the blocks
        for sect in range(n):
            if rng.random() < 0.45:
                freemap.mark_used(base + sect, 1)


def _copy_track(freemap, src_base: int, dst_base: int, n: int) -> None:
    for sect in range(n):
        if not freemap.is_free(src_base + sect):
            freemap.mark_used(dst_base + sect, 1)


def _scramble(compactor: FreeSpaceCompactor, seed: int):
    """Expand ``seed`` into a drive state; returns the source track."""
    rng = random.Random(seed)
    vld = compactor.vld
    disk = vld.disk
    freemap = vld.freemap
    geometry = disk.geometry
    n = geometry.sectors_per_track
    tpc = geometry.tracks_per_cylinder
    cylinders = geometry.num_cylinders
    freemap.set_quarantined(())
    freemap.mark_free(0, geometry.total_sectors)
    disk.head_cylinder = rng.randrange(cylinders)
    disk.head_head = rng.randrange(tpc)
    # A sparse drive now and then: holes only on one side of the arm, or
    # only far away, make the outward walk go the distance.
    density = rng.choice([1.0, 1.0, 0.5, 0.15])
    for cylinder in range(cylinders):
        for head in range(tpc):
            shape = rng.choice(_SHAPES)
            if rng.random() > density:
                shape = rng.choice(("empty", "full"))
            base = (cylinder * tpc + head) * n
            if shape == "mirror-head" and head > 0:
                _copy_track(freemap, base - n, base, n)
            elif shape == "mirror-cylinder":
                twin = 2 * disk.head_cylinder - cylinder
                if 0 <= twin < cylinder:
                    _copy_track(
                        freemap, (twin * tpc + head) * n, base, n
                    )
                else:
                    _fill_track(rng, freemap, base, n, "blocks")
            else:
                _fill_track(rng, freemap, base, n, shape)
    if rng.random() < 0.4:
        for _ in range(rng.randrange(1, 6)):
            freemap.quarantine(rng.randrange(geometry.total_sectors))
    sector_time = disk.mechanics.sector_time
    if rng.random() < 0.5:
        tick = rng.randrange(0, 5 * n) * sector_time
    else:
        tick = rng.random() * 5 * n * sector_time
    disk.clock.now = 0.25 + tick  # a reading, not an advance: any value
    if rng.random() < 0.7:
        # Usually a partial track, as the compactor picks them.
        partial = freemap.partial_tracks(1)
        if partial:
            return rng.choice(partial)
    return rng.randrange(cylinders), rng.randrange(tpc)


@pytest.fixture(scope="module")
def compactors():
    return {name: _build(spec) for name, spec in SPECS.items()}


@given(
    name=st.sampled_from(sorted(SPECS)),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(
    max_examples=400,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_both_searches_name_the_same_block(compactors, name, seed):
    compactor = compactors[name]
    source = _scramble(compactor, seed)
    assert compactor._find_hole(source) == reference_find_hole(
        compactor, source
    )


def test_the_states_cover_what_they_claim(compactors):
    """The generator above is only worth its examples if it reaches the
    cases the search can get wrong: count them over a fixed seed range."""
    seen = {
        "found": 0, "none": 0, "far": 0, "own-track": 0, "other-head": 0,
        "source-partial": 0, "quarantined": 0,
    }
    for _, compactor in sorted(compactors.items()):
        vld = compactor.vld
        disk = vld.disk
        n = disk.geometry.sectors_per_track
        tpc = disk.geometry.tracks_per_cylinder
        for seed in range(150):
            source = _scramble(compactor, seed)
            block = compactor._find_hole(source)
            assert block == reference_find_hole(compactor, source)
            free = vld.freemap.track_free_count(*source)
            seen["source-partial"] += 0 < free < n
            seen["quarantined"] += bool(vld.freemap.quarantined_sectors())
            if block is None:
                seen["none"] += 1
                continue
            seen["found"] += 1
            track = block * vld.sectors_per_block // n
            seen["far"] += track // tpc != disk.head_cylinder
            seen["own-track"] += (
                track == disk.head_cylinder * tpc + disk.head_head
            )
            seen["other-head"] += track % tpc != disk.head_head
            # Never an empty track, never the source, always free.
            assert vld.freemap.track_free_count(*divmod(track, tpc)) < n
            assert divmod(track, tpc) != source
            assert vld.freemap.run_is_free(block * 8, 8)
    assert all(count >= 20 for count in seen.values()), seen


def _one_hole_at(freemap, geometry, cylinder, head, angle):
    """Leave exactly one free block on the track, starting at platter
    angle ``angle``; the rest of the track is used."""
    n = geometry.sectors_per_track
    base = geometry.track_start(cylinder, head)
    sect = (angle - geometry.skew_offset(cylinder, head)) % n
    assert sect % 8 == 0
    freemap.mark_used(base, n)
    freemap.mark_free(base + sect, 8)
    return (base + sect) // 8


class TestTieBreaks:
    """Equal costs fall to the lower track index, in both searches."""

    def _blank(self, name="aligned-3-heads"):
        compactor = _build(SPECS[name])
        vld = compactor.vld
        geometry = vld.disk.geometry
        vld.freemap.mark_used(0, geometry.total_sectors)
        return compactor, vld, geometry

    def _both(self, compactor, source, tied=()):
        disk = compactor.vld.disk
        if tied:
            # The case is a tie by the drive's own pricing, not by intent.
            costs = disk.mechanics.price_candidates(
                disk.clock.now,
                disk.head_cylinder,
                disk.head_head,
                [block * 8 for block in tied],
            )
            assert len(set(costs)) == 1
        found = compactor._find_hole(source)
        assert found == reference_find_hole(compactor, source)
        return found

    def test_two_heads_at_one_angle(self):
        compactor, vld, geometry = self._blank()
        vld.disk.head_cylinder, vld.disk.head_head = 3, 0
        # Heads 1 and 2 both pay the head switch and both hold a hole at
        # angle 16: the lower head wins.
        low = _one_hole_at(vld.freemap, geometry, 3, 1, 16)
        high = _one_hole_at(vld.freemap, geometry, 3, 2, 16)
        assert self._both(compactor, (0, 0), tied=(low, high)) == low

    def test_lo_and_hi_cylinder_tie_on_the_current_head(self):
        compactor, vld, geometry = self._blank("aligned-1-head")
        vld.disk.head_cylinder = 4
        # One head per cylinder, so every track is "the current head's":
        # the two neighbours cost the same seek and the same wait.
        lo = _one_hole_at(vld.freemap, geometry, 3, 0, 8)
        hi = _one_hole_at(vld.freemap, geometry, 5, 0, 8)
        assert self._both(compactor, (0, 0), tied=(lo, hi)) == lo

    def test_lo_and_hi_cylinder_tie_across_other_heads(self):
        compactor, vld, geometry = self._blank()
        vld.disk.head_cylinder, vld.disk.head_head = 3, 0
        lo = _one_hole_at(vld.freemap, geometry, 2, 2, 24)
        hi = _one_hole_at(vld.freemap, geometry, 4, 1, 24)
        assert self._both(compactor, (0, 0), tied=(lo, hi)) == lo

    def test_only_at_hi(self):
        compactor, vld, geometry = self._blank()
        vld.disk.head_cylinder, vld.disk.head_head = 1, 1
        far = _one_hole_at(vld.freemap, geometry, 6, 2, 0)
        assert self._both(compactor, (1, 1)) == far

    def test_only_at_lo(self):
        compactor, vld, geometry = self._blank()
        vld.disk.head_cylinder, vld.disk.head_head = 5, 2
        far = _one_hole_at(vld.freemap, geometry, 0, 0, 8)
        assert self._both(compactor, (5, 2)) == far

    def test_the_source_and_empty_tracks_are_passed_over(self):
        compactor, vld, geometry = self._blank()
        vld.disk.head_cylinder, vld.disk.head_head = 3, 1
        n = geometry.sectors_per_track
        _one_hole_at(vld.freemap, geometry, 3, 1, 8)  # the source itself
        vld.freemap.mark_free(geometry.track_start(3, 2), n)  # empty
        elsewhere = _one_hole_at(vld.freemap, geometry, 6, 0, 0)
        assert self._both(compactor, (3, 1)) == elsewhere
        # Nothing but the source and an empty track: no hole at all.
        vld.freemap.mark_used(geometry.track_start(6, 0), n)
        assert self._both(compactor, (3, 1)) is None


def test_one_free_map_query_per_cylinder_reached():
    """The point of the cut, counted on the real drive: a hole found in
    the arm's own cylinder costs one query, not one per partial track."""
    compactor = _build(ST19101)
    vld = compactor.vld
    rng = random.Random(3)
    for block in rng.sample(range(1, vld.physical_blocks), 3500):
        vld.freemap.mark_used(block * 8, 8)
    queries = []
    real = vld.freemap.nearest_hole_in_cylinder

    def counting(*args):
        queries.append(args[0])
        return real(*args)

    vld.freemap.nearest_hole_in_cylinder = counting
    assert compactor._find_hole((0, 3)) == reference_find_hole(
        compactor, (0, 3)
    )
    assert 1 <= len(queries) <= 3 and len(set(queries)) == len(queries)
