"""The per-track hole search: the reference the differential test
compares :meth:`repro.vlog.compactor.FreeSpaceCompactor._find_hole`
against.

This is the body ``_find_hole`` had before the compactor started asking
the free map once per cylinder (DESIGN.md section 8, "The hole query"):
the same outward walk by seek distance and the same ``(cost, track
index)`` rule, but every partial track in range priced by its own
``nearest_free_run`` call.  Moved here verbatim (``self`` became the
``compactor`` argument) because nothing in ``src/`` calls it.
"""

from typing import Optional, Tuple


def reference_find_hole(
    compactor, source_track: Tuple[int, int]
) -> Optional[int]:
    """Nearest free block on a *partially used* track other than the
    source (classic hole-plugging: never consume empty tracks).

    The winner is the minimum by ``(cost, track index)`` over the
    partial tracks -- exactly what the old in-order scan over
    ``partial_tracks`` (which iterates in row-major track order) with
    its strict-improvement rule selected.  Rather than pricing every
    partial track on the drive, the search walks cylinders outward
    from the arm by seek distance and stops as soon as the seek alone
    exceeds the incumbent's full cost (cost = positioning + a
    non-negative rotational term), so the rotational pricing and the
    per-track run query only run for the handful of nearest tracks.
    """
    self = compactor
    vld = self.vld
    disk = vld.disk
    spb = vld.sectors_per_block
    freemap = vld.freemap
    mechanics = disk.mechanics
    seeks = mechanics.seek_by_distance
    switch = mechanics.head_switch_time
    sector_time = mechanics.sector_time
    rotational_slot = mechanics.rotational_slot
    head_cyl = disk.head_cylinder
    head_head = disk.head_head
    now = disk.clock.now
    geometry = disk.geometry
    tpc = geometry.tracks_per_cylinder
    num_cylinders = geometry.num_cylinders
    per_track = geometry.sectors_per_track
    track_free = freemap._track_free
    nearest_free_run = freemap.nearest_free_run
    src_cyl, src_head = source_track
    if self._seeks_sorted is None:
        # The outward walk prunes whole distances on the premise that
        # the seek curve never decreases with distance; verify once
        # (physically always true, but cheap insurance).
        self._seeks_sorted = all(a <= b for a, b in zip(seeks, seeks[1:]))
    can_prune_distance = self._seeks_sorted
    best_cost = 0.0
    best_key = -1
    best_block: Optional[int] = None
    for distance in range(num_cylinders):
        floor = seeks[distance]
        if (
            can_prune_distance
            and best_block is not None
            and floor > best_cost
        ):
            # Every remaining track sits at least this seek away, so
            # its cost (>= its seek) cannot beat the incumbent.
            break
        lo = head_cyl - distance
        hi = head_cyl + distance
        if lo < 0 and hi >= num_cylinders:
            break
        cylinders = (lo,) if lo == hi else (lo, hi)
        for cylinder in cylinders:
            if cylinder < 0 or cylinder >= num_cylinders:
                continue
            base = cylinder * tpc
            for head in range(tpc):
                free = track_free[base + head]
                if free < spb or free >= per_track:
                    continue
                if cylinder == src_cyl and head == src_head:
                    continue
                positioning = floor
                if head != head_head and switch > positioning:
                    positioning = switch
                key = base + head
                if best_block is not None and (
                    positioning > best_cost
                    or (positioning == best_cost and key > best_key)
                ):
                    # cost >= positioning, so this track either costs
                    # strictly more than the incumbent or at best ties
                    # with a later track index; it cannot win.
                    continue
                found = nearest_free_run(
                    cylinder, head,
                    rotational_slot(now + positioning), spb,
                    align=spb,
                )
                if found is None:
                    continue
                gap_slots, linear = found
                cost = positioning + gap_slots * sector_time
                if (
                    best_block is None
                    or cost < best_cost
                    or (cost == best_cost and key < best_key)
                ):
                    best_cost = cost
                    best_key = key
                    best_block = linear // spb
    return best_block
