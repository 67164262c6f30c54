"""Idle-time read-locality reorganization for the Virtual Log Disk.

Eager writing destroys spatial locality: logically sequential data ends up
physically scattered, collapsing later sequential reads (Figure 7's
"sequential read after random write").  Section 3.4 points at the cure --
"reorganization techniques that can improve LFS performance [22] should be
equally applicable to VLFS" -- without building it.  This module does:

during idle time, logically consecutive block runs whose physical layout
is fragmented are rewritten into physically contiguous extents, using the
same indirection-map commit discipline as ordinary writes.  It composes
with the free-space compactor: compaction makes empty tracks, which are
exactly where contiguous extents fit.
"""

from __future__ import annotations

from typing import List, Optional

from repro.vlog.vld import VirtualLogDisk


class ReadReorganizer:
    """Restores logical-to-physical contiguity during idle periods."""

    def __init__(self, vld: VirtualLogDisk) -> None:
        self.vld = vld
        per_track = vld.disk.geometry.sectors_per_track
        #: Logical blocks per window: 16, or one track's worth if less.
        self.window_blocks = min(16, per_track // vld.sectors_per_block)
        self.windows_reorganized = 0
        self.blocks_moved = 0

    # ------------------------------------------------------------------

    def run_for(self, seconds: float) -> float:
        """Reorganize fragmented windows until the budget is spent."""
        if not seconds >= 0.0:
            raise ValueError("idle budget must be non-negative")
        clock = self.vld.disk.clock
        start = clock.now
        deadline = start + seconds
        cursor = 0
        total_windows = -(-self.vld.num_blocks // self.window_blocks)
        scanned = 0
        while clock.now < deadline and scanned < total_windows:
            window = cursor % total_windows
            cursor += 1
            scanned += 1
            lba = window * self.window_blocks
            if self._window_fragmentation(lba) >= 2:
                if self._reorganize_window(lba):
                    scanned = 0  # found work; keep the scan going
        return clock.now - start

    # ------------------------------------------------------------------

    def _window_physmap(self, lba: int) -> List[Optional[int]]:
        end = min(lba + self.window_blocks, self.vld.num_blocks)
        return [self.vld.imap.get(l) for l in range(lba, end)]

    def _track_of(self, physical_block: int) -> int:
        sector = physical_block * self.vld.sectors_per_block
        return sector // self.vld.disk.geometry.sectors_per_track

    def _window_fragmentation(self, lba: int) -> int:
        """Number of *track-level* discontinuities across the window.

        Blocks scattered within one track (the track-fill pattern wraps
        around reserve slots) read at full speed from the track buffer, so
        only jumps to non-adjacent tracks count as fragmentation."""
        physmap = [p for p in self._window_physmap(lba) if p is not None]
        if len(physmap) < 2:
            return 0
        breaks = 0
        for previous, current in zip(physmap, physmap[1:]):
            if abs(self._track_of(current) - self._track_of(previous)) > 1:
                breaks += 1
        return breaks

    def _find_contiguous_run(self, blocks: int) -> Optional[int]:
        """A free physical extent of ``blocks`` aligned blocks, preferring
        empty tracks (which the compactor regenerates).

        Candidate tracks come pre-ranked most-free-first from the free
        map's counters, so the scan prices only the best free-count tier
        actually holding a run instead of every track on the disk."""
        vld = self.vld
        spb = vld.sectors_per_block
        need = blocks * spb
        ranked = vld.freemap.tracks_by_free_count(minimum_free=need)
        i = 0
        while i < len(ranked):
            tier = ranked[i][0]
            best: Optional[int] = None
            while i < len(ranked) and ranked[i][0] == tier:
                _free, cylinder, head = ranked[i]
                i += 1
                found = vld.freemap.nearest_free_run(
                    cylinder, head, 0.0, need, align=spb
                )
                if found is not None and (best is None or found[1] < best):
                    best = found[1]
            if best is not None:
                return best
        return None

    def _reorganize_window(self, lba: int) -> bool:
        """Rewrite one window contiguously; returns True when work was
        done."""
        vld = self.vld
        spb = vld.sectors_per_block
        physmap = self._window_physmap(lba)
        mapped = [
            (lba + i, physical)
            for i, physical in enumerate(physmap)
            if physical is not None
        ]
        if len(mapped) < 2:
            return False
        destination = self._find_contiguous_run(len(mapped))
        if destination is None:
            return False
        # Gather current contents (one read per physically contiguous run).
        payload_parts: List[bytes] = []
        for _l, physical in mapped:
            data, _cost = vld.disk.read(
                physical * spb, spb, charge_scsi=False
            )
            payload_parts.append(data)
        # One sequential write lays the extent down.
        vld.freemap.mark_used(destination, len(mapped) * spb)
        vld.disk.write(
            destination,
            len(mapped) * spb,
            b"".join(payload_parts),
            charge_scsi=False,
        )
        # Commit: remap, append touched chunks, recycle the old copies.
        touched = {}
        old_blocks: List[int] = []
        for i, (logical, old_physical) in enumerate(mapped):
            new_block = destination // spb + i
            vld.imap.set(logical, new_block)
            vld.reverse[new_block] = logical
            touched[vld.imap.chunk_id_of(logical)] = None
            old_blocks.append(old_physical)
        for chunk_id in touched:
            vld.vlog.append(chunk_id, vld.imap.chunk_entries(chunk_id))
        for old_physical in old_blocks:
            vld.reverse.pop(old_physical, None)
            vld.allocator.free_block(old_physical)
        self.windows_reorganized += 1
        self.blocks_moved += len(mapped)
        return True
