"""Idle-time free-space compaction (Sections 2.3, 4.2, 5.5).

The compactor runs on the drive's "free" internal bandwidth during idle
periods: it picks a partially-filled track (targets chosen randomly, as in
the paper's implementation), reads its live blocks, and hole-plugs them
into the free space of *other* non-empty tracks, leaving the source track
completely empty for the track-fill allocator.  Unlike the LFS cleaner it
moves data at track (indeed block) granularity, so it profits from idle
intervals far shorter than a segment write (Figure 11 vs Figure 10).

Moving a data block updates the indirection map (batched per chunk); moving
a live map-record block relocates that chunk's record through the virtual
log.  The power-down record's block is immovable, so its track is never a
compaction target.

The hole for each block is the cheapest one for the arm to reach, minimum
by ``(cost, track index)``.  The search walks cylinders outward from the
arm and asks the free map once per cylinder, not once per track: the track
under the current head pays the seek alone and every other track of a
cylinder pays ``max(seek, head switch)``, so a cylinder has two arrival
angles and :meth:`FreeSpaceMap.nearest_hole_in_cylinder
<repro.disk.freemap.FreeSpaceMap.nearest_hole_in_cylinder>` answers both
from its angle-major view (DESIGN.md section 8).  The track-by-track
search this replaced is ``tests/vlog/reference_find_hole.py``.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.vlog.resilience import MediaError

if TYPE_CHECKING:  # the VLD builds its compactor
    from repro.vlog.vld import VirtualLogDisk


class FreeSpaceCompactor:
    """Track-granularity hole-plugging compactor for a VLD."""

    def __init__(self, vld: VirtualLogDisk) -> None:
        self.vld = vld
        self.rng = random.Random(0x5EED)
        self.tracks_compacted = 0
        self.blocks_moved = 0
        # The outward hole search prunes whole distances on the premise
        # that the seek curve never decreases with distance (physically
        # always true, but cheap insurance).
        seeks = vld.disk.mechanics.seek_by_distance
        self._seeks_sorted = all(a <= b for a, b in zip(seeks, seeks[1:]))

    # ------------------------------------------------------------------

    def run_for(self, seconds: float) -> float:
        """Compact until ``seconds`` of idle time are consumed or no work
        remains; returns the simulated time actually used."""
        if not seconds >= 0.0:
            raise ValueError("idle budget must be non-negative")
        clock = self.vld.disk.clock
        start = clock.now
        deadline = start + seconds
        while clock.now < deadline:
            target = self._pick_target()
            if target is None:
                break
            if not self._compact_track(target, deadline):
                break
        return clock.now - start

    # ------------------------------------------------------------------

    def _pick_target(self) -> Optional[Tuple[int, int]]:
        """A random partially-filled track (never the power-down track, never
        the allocator's current fill track)."""
        pinned_track = self._power_down_track()
        fill_track = self.vld.allocator._fill_track
        candidates = [
            track
            for track in self.vld.freemap.partial_tracks(1)
            if track != pinned_track and track != fill_track
        ]
        if not candidates:
            return None
        return self.rng.choice(candidates)

    def _power_down_track(self) -> Tuple[int, int]:
        geometry = self.vld.disk.geometry
        sector = self.vld.POWER_DOWN_BLOCK * self.vld.sectors_per_block
        cylinder, head, _ = geometry.decompose(sector)
        return cylinder, head

    def _compact_track(self, track: Tuple[int, int], deadline: float) -> bool:
        """Move every live block off one track; returns False when stuck
        (no holes elsewhere) or out of time."""
        vld = self.vld
        geometry = vld.disk.geometry
        clock = vld.disk.clock
        cylinder, head = track
        base_sector = geometry.track_start(cylinder, head)
        spb = vld.sectors_per_block
        map_spb = vld.vlog.sectors_per_block
        #: lbas whose data moved, grouped by map chunk for batched commits.
        touched_chunks: Dict[int, List[int]] = {}
        progressed = False
        sector = base_sector
        end = base_sector + geometry.sectors_per_track
        while sector < end:
            if clock.now >= deadline:
                self._commit_moves(touched_chunks)
                return False
            # Skip straight to the next occupied sector via the free map's
            # track bitmap (live state: blocks this pass frees or the map
            # allocator fills mid-scan are seen, exactly as the old
            # one-sector-at-a-time walk did).
            used = vld.freemap.next_used_on_track(
                cylinder, head, sector - base_sector
            )
            if used is None:
                break
            sector = used
            block = sector // spb
            if sector % spb == 0 and block in vld.reverse:
                # A 4 KB data block.
                lba = vld.reverse[block]
                moved_chunk = self._move_data_block(block, lba, track)
                if moved_chunk is None:
                    self._commit_moves(touched_chunks)
                    return False
                touched_chunks.setdefault(moved_chunk, []).append(lba)
                progressed = True
                sector += spb
                continue
            record = sector // map_spb
            chunk_id = vld.vlog.chunk_of_block(record)
            if chunk_id is not None and sector % map_spb == 0:
                # Relocate the live record through the log itself;
                # ``relocate`` resolves the payload for every chunk kind
                # (map, quarantine-table, or transaction-commit records).
                vld.vlog.relocate(chunk_id)
                progressed = True
                sector += map_spb
                continue
            # Neither data nor a live record: a reserved sector (the
            # power-down block never shares a target track) or one freed
            # mid-scan; nothing to move.
            sector += 1
        self._commit_moves(touched_chunks)
        if progressed:
            self.tracks_compacted += 1
        return progressed

    def _move_data_block(
        self, block: int, lba: int, source_track: Tuple[int, int]
    ) -> Optional[int]:
        """Hole-plug one data block into another track; returns the map
        chunk needing commit, or None when no hole exists."""
        vld = self.vld
        spb = vld.sectors_per_block
        destination = self._find_hole(source_track)
        if destination is None:
            return None
        try:
            data = vld._read_physical(block * spb, spb, None)
        except MediaError:
            # The block resists reading even with retries: leave it for
            # the scrubber (the failed read queued it as a suspect) and
            # stop compacting this track.
            return None
        vld.freemap.mark_used(destination * spb, spb)
        chunk_id = vld.move_block(lba, block, destination, data)
        # The old copy is freed immediately; the map commit is batched by
        # the caller.  A crash between move and commit recovers the *old*
        # mapping -- whose block we just freed but have not yet reused
        # within this compaction pass, preserving correctness for the
        # paper's single-compactor design.
        vld.freemap.mark_free(block * spb, spb)
        self.blocks_moved += 1
        return chunk_id

    def _find_hole(self, source_track: Tuple[int, int]) -> Optional[int]:
        """Nearest free block on a *partially used* track other than the
        source (classic hole-plugging: never consume empty tracks).

        The winner is the minimum by ``(cost, track index)`` over the
        partial tracks.  The search walks cylinders outward from the arm
        by seek distance and stops as soon as the seek alone exceeds the
        incumbent's full cost (cost = positioning + a non-negative
        rotational term).  Each cylinder it reaches is asked once: the
        track under the arm's current head pays the seek, every other
        track of the cylinder pays ``max(seek, head switch)`` -- one
        arrival angle for all of them -- so the free map answers the
        whole cylinder from two angles
        (:meth:`FreeSpaceMap.nearest_hole_in_cylinder`) and the two
        answers are priced and ranked here, with the expressions and the
        tie rule a track-by-track search would use
        (``tests/vlog/reference_find_hole.py`` is that search).
        """
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
        num_cylinders = geometry.num_cylinders
        per_track = geometry.sectors_per_track
        src_cyl, src_head = source_track
        can_prune_distance = self._seeks_sorted
        best_cost = 0.0
        best_key = -1
        best_block: Optional[int] = None
        for distance in range(num_cylinders):
            seek = seeks[distance]
            if (
                can_prune_distance
                and best_block is not None
                and seek > best_cost
            ):
                # Every remaining track sits at least this seek away, so
                # its cost (>= its seek) cannot beat the incumbent.
                break
            lo = head_cyl - distance
            hi = head_cyl + distance
            if lo < 0 and hi >= num_cylinders:
                break
            own_slot = other_slot = rotational_slot(now + seek)
            switched = seek
            if switch > seek:
                switched = switch
                other_slot = rotational_slot(now + switch)
            for cylinder in (lo,) if lo == hi else (lo, hi):
                if cylinder < 0 or cylinder >= num_cylinders:
                    continue
                found = freemap.nearest_hole_in_cylinder(
                    cylinder,
                    head_head,
                    own_slot,
                    other_slot,
                    spb,
                    spb,
                    src_head if cylinder == src_cyl else None,
                )
                for hole, positioning in zip(found, (seek, switched)):
                    if hole is None:
                        continue
                    gap_slots, linear = hole
                    cost = positioning + gap_slots * sector_time
                    key = linear // per_track
                    if (
                        best_block is None
                        or cost < best_cost
                        or (cost == best_cost and key < best_key)
                    ):
                        best_cost = cost
                        best_key = key
                        best_block = linear // spb
        return best_block

    def _commit_moves(self, touched_chunks: Dict[int, List[int]]) -> None:
        """Write the map records for all chunks whose entries moved."""
        for chunk_id in touched_chunks:
            self.vld.vlog.append(
                chunk_id, self.vld.imap.chunk_entries(chunk_id)
            )
        touched_chunks.clear()
