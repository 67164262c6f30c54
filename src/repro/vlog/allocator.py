"""Eager-writing allocation: choose a free block near the disk head.

Three policies, matching the paper's Section 2 models and the Section 4.2
implementation:

* ``NEAREST`` -- always pick the globally cheapest free run (used for the
  Figure 1 simulation, whose eager-writing algorithm "is not restricted to
  the current cylinder and always seeks to the nearest sector").
* ``GREEDY_CYLINDER`` -- prefer the current cylinder (the two-way race of
  the single-cylinder model); when it is full, seek in *one direction* only,
  wrapping at the last cylinder, to avoid trapping the head in a region of
  high utilization (Section 4.2).
* ``TRACK_FILL`` -- the compactor-assisted regime of Section 2.3: fill an
  empty track until only ``1 - fill_threshold`` of it remains free, then
  move to the next empty track; fall back to ``GREEDY_CYLINDER`` when the
  compactor has not produced empty tracks.

The allocator answers in the same closed-form timing the disk engine will
recompute when the write is issued, so the chosen block really is the one
the head can reach soonest.
"""

from __future__ import annotations

import enum
from typing import Iterable, Iterator, List, Optional, Tuple

from repro.disk.disk import Disk
from repro.disk.freemap import FreeSpaceMap


class AllocationPolicy(enum.Enum):
    NEAREST = "nearest"
    GREEDY_CYLINDER = "greedy_cylinder"
    TRACK_FILL = "track_fill"


class DiskFullError(Exception):
    """No free run of the requested size exists anywhere on the disk."""


def block_runs(blocks: List[int]) -> Iterator[Tuple[int, int]]:
    """``(first, count)`` of each maximal run of consecutive numbers in
    ``blocks``, which must be sorted ascending."""
    start = prev = blocks[0]
    for block in blocks[1:]:
        if block == prev + 1:
            prev = block
            continue
        yield start, prev - start + 1
        start = prev = block
    yield start, prev - start + 1


class EagerAllocator:
    """Chooses and accounts for physical blocks near the disk head.

    Args:
        disk: The simulated disk (for head position and timing).
        freemap: Free-space bookkeeping; the allocator marks its choices
            used and exposes :meth:`free_block` for recycling.
        block_sectors: Allocation unit in sectors (8 = 4 KB, the paper's
            VLD physical block size).
        policy: Placement policy.
        fill_threshold: ``TRACK_FILL`` occupancy target (0.75 = fill each
            empty track to 75 % as in the paper's experiments).
    """

    def __init__(
        self,
        disk: Disk,
        freemap: FreeSpaceMap,
        block_sectors: int = 8,
        policy: AllocationPolicy = AllocationPolicy.TRACK_FILL,
        fill_threshold: float = 0.75,
    ) -> None:
        if block_sectors <= 0:
            raise ValueError("block_sectors must be positive")
        if not 0.0 < fill_threshold <= 1.0:
            raise ValueError("fill_threshold must lie in (0, 1]")
        self.disk = disk
        self.freemap = freemap
        self.block_sectors = block_sectors
        self.policy = policy
        self.fill_threshold = fill_threshold
        geometry = disk.geometry
        if geometry.sectors_per_track % block_sectors != 0:
            raise ValueError("blocks must not straddle track boundaries")
        #: Free sectors to leave on a fill track before switching (the
        #: model's ``m``).
        self.reserve_sectors = int(
            round((1.0 - fill_threshold) * geometry.sectors_per_track)
        )
        self._fill_track: Optional[Tuple[int, int]] = None
        #: Lazily-built suffix minimum of the seek curve by distance: the
        #: sound prune bound for the NEAREST cylinder sweep (the two-piece
        #: curve need not be monotone, so the seek at one distance says
        #: nothing about farther ones).
        self._seek_floor: Optional[list] = None
        #: One-direction sweep cursor (Section 4.2).
        self._sweep_cylinder = 0
        #: The head-switch settle window in sector slots: what a run on
        #: any other track of a cylinder is penalised by.
        self._switch_slots = (
            disk.spec.head_switch_time / disk.mechanics.sector_time
        )
        self.allocations = 0
        self.fallbacks = 0

    # ------------------------------------------------------------------
    # Public interface
    # ------------------------------------------------------------------

    def allocate(self, sectors: Optional[int] = None) -> int:
        """Pick a free block near the head; returns the physical block index.

        The chosen run is marked used.  ``sectors`` may be passed for
        interface clarity but must equal ``block_sectors``.
        """
        spb = self.block_sectors
        if sectors is not None and sectors != spb:
            raise ValueError(
                f"allocator unit is {spb} sectors, "
                f"got request for {sectors}"
            )
        freemap = self.freemap
        if freemap.free_sectors < spb:
            raise DiskFullError("no free space left on device")
        # Policy dispatch, in this frame: every eager write asks once.
        policy = self.policy
        if policy is AllocationPolicy.TRACK_FILL:
            sector = self._choose_track_fill()
        elif policy is AllocationPolicy.GREEDY_CYLINDER:
            sector = self._choose_greedy()
        else:
            sector = self._choose_nearest()
        if sector is None:
            raise DiskFullError(f"no aligned free run of {spb} sectors")
        freemap._set(sector, spb, False)  # mark_used
        self.allocations += 1
        return sector // spb

    def allocate_run(self, max_blocks: int) -> Tuple[int, int]:
        """Allocate up to ``max_blocks`` physically contiguous blocks near
        the head; returns ``(first_block, blocks)``.

        The first block is :meth:`allocate`'s answer, marked used at once.
        Under ``TRACK_FILL`` with an active fill track the run is then
        extended block by block while the *next adjacent* block is
        provably what the scalar query would return after servicing the
        previous block's write:

        * the fill track stays above its reserve (``_track_usable``),
        * the adjacent block's sectors are free and inside the track, and
        * the head -- projected forward with exactly the per-block service
          arithmetic ``Disk.write`` uses -- arrives within one block's
          worth of slots of the adjacent sectors' angle, which forces the
          rotationally-nearest aligned run to be those very sectors
          (aligned candidates sit exactly ``block_sectors`` slots apart).

        The extension never runs the policy's full query, so no policy
        state (``_fill_track``, ``fallbacks``, sweep cursors) mutates
        beyond what the scalar per-block sequence would do.  When the
        proof fails the run simply stops; the caller issues the run and
        the next call re-queries at the true clock, which by construction
        equals the projected time -- so a conservative stop splits a run
        without ever changing placement.
        """
        if max_blocks <= 0:
            raise ValueError("max_blocks must be positive")
        spb = self.block_sectors
        sector = self.allocate() * spb
        run = 1
        fallback_blocks = 0
        if max_blocks > 1:
            policy = self.policy
            fill = self._fill_track
            fill_mode = greedy_mode = False
            if policy is AllocationPolicy.TRACK_FILL:
                if fill is not None:
                    fill_mode = True
                elif self.freemap._empty_tracks == 0:
                    # Greedy fallback, and it stays the fallback for every
                    # block of the run: empty tracks cannot appear while
                    # we only allocate, so the scalar per-block sequence
                    # deterministically re-enters ``_choose_greedy`` (and
                    # counts a fallback) each time.
                    greedy_mode = True
            elif policy is AllocationPolicy.GREEDY_CYLINDER:
                greedy_mode = True
            disk = self.disk
            geometry = disk.geometry
            n = geometry.sectors_per_track
            track = sector // n
            sect = sector - track * n
            tpc = geometry.tracks_per_cylinder
            cylinder = track // tpc
            head = track - cylinder * tpc
            if fill_mode and (cylinder, head) != fill:
                fill_mode = False
            if fill_mode or greedy_mode:
                mechanics = disk.mechanics
                freemap = self.freemap
                access = mechanics.access
                rotational_slot = mechanics.rotational_slot
                switch_slots = self._switch_slots
                skew = mechanics.skew_by_track[track]
                seek_same = mechanics.seek_by_distance[0]
                reserve = max(self.reserve_sectors + spb, spb)
                # The count before the first block was marked: the loop
                # takes each block's sectors off as it projects it.
                free = freemap.track_free_count(cylinder, head) + spb
                base = track * n
                # Project servicing each block's write with the kernel
                # the disk will service it with, starting from the true
                # head position and clock.
                t = disk.clock.now
                hc = disk.head_cylinder
                hh = disk.head_head
                cur = sect
                while True:
                    t, _, _, _, hc, hh = access(t, hc, hh, base + cur, spb)
                    free -= spb
                    if run >= max_blocks:
                        break
                    nxt = cur + spb
                    if nxt + spb > n:
                        break
                    if fill_mode and free < reserve:
                        break
                    if not freemap.segment_free(base + nxt, spb):
                        break
                    next_angle = nxt + skew
                    if next_angle >= n:
                        next_angle -= n
                    if fill_mode:
                        # The scalar fill query runs at time ``t`` with
                        # the head already on the fill track: its arrival
                        # is the platter angle after the same-track
                        # positioning, and the nearest aligned run on the
                        # track is forced to be the adjacent block when
                        # its gap is under one block (aligned candidates
                        # sit exactly ``spb`` slots apart).
                        arrival = rotational_slot(t + seek_same)
                        if (next_angle - arrival) % n >= spb:
                            break
                    else:
                        # The scalar greedy query races every track of
                        # the cylinder; the adjacent block is forced when
                        # its gap also beats the head-switch penalty any
                        # other track's candidate must pay.
                        arrival = rotational_slot(t + 0.0)
                        gap = (next_angle - arrival) % n
                        if gap >= spb or gap >= switch_slots:
                            break
                    cur = nxt
                    run += 1
                    if greedy_mode and policy is AllocationPolicy.TRACK_FILL:
                        fallback_blocks += 1
        if run > 1:
            # mark_used: the free map is a set, so marking the extension
            # after the first block is the state one mark of the run makes.
            self.freemap._set(sector + spb, (run - 1) * spb, False)
            self.allocations += run - 1
        self.fallbacks += fallback_blocks
        return sector // spb, run

    def free_block(self, block: int, sectors: Optional[int] = None) -> None:
        """Return a block to the free pool."""
        if sectors is not None and sectors != self.block_sectors:
            raise ValueError("sector count mismatch")
        spb = self.block_sectors
        self.freemap._set(block * spb, spb, True)  # mark_free

    def free_blocks(self, blocks: List[int]) -> None:
        """Return many blocks to the free pool at once, coalescing
        physically adjacent blocks into range-granular free-map updates.

        The free map is a set: marking ``[a, a+2)`` free is the same state
        as marking ``a`` and ``a+1`` separately, in any order, so this is
        pure bookkeeping batching -- displaced old copies from a logical
        run were usually allocated as one physical run and free as one.
        """
        if not blocks:
            return
        spb = self.block_sectors
        set_run = self.freemap._set  # mark_free, less a frame per run
        for first, count in block_runs(sorted(blocks)):
            set_run(first * spb, count * spb, True)

    def reserve_block(self, block: int) -> None:
        """Permanently remove a block from the pool (e.g. the power-down
        record's home)."""
        self.freemap.mark_used(block * self.block_sectors, self.block_sectors)

    # ------------------------------------------------------------------
    # Policies (dispatched by :meth:`allocate`)
    # ------------------------------------------------------------------

    # -- NEAREST --------------------------------------------------------

    def _choose_nearest(self) -> Optional[int]:
        """Globally cheapest run: scan cylinders outward, pruning by seek."""
        disk = self.disk
        mechanics = disk.mechanics
        now = disk.clock.now
        seeks = mechanics.seek_by_distance
        sector_time = mechanics.sector_time
        switch_slots = self._switch_slots
        best_cost: Optional[float] = None
        best_sector: Optional[int] = None
        for cylinder, distance in self._cylinders_by_distance():
            if best_cost is not None and self._seek_floor_at(distance) >= best_cost:
                break  # no remaining distance can even out-seek the incumbent
            seek = seeks[distance]
            # No existence pre-check, as in ``_choose_greedy``'s sweep: a
            # ``cylinder_has_run`` probe is the query's own fold, twice.
            arrival_slot = mechanics.rotational_slot(now + seek)
            found = self.freemap.nearest_free_in_cylinder(
                cylinder,
                disk.head_head,
                arrival_slot,
                self.block_sectors,
                align=self.block_sectors,
                head_switch_slots=max(
                    0.0, switch_slots - seek / sector_time
                ),
            )
            if found is None:
                continue
            gap_slots, linear, _head = found
            cost = seek + gap_slots * sector_time
            if best_cost is None or cost < best_cost:
                best_cost = cost
                best_sector = linear
        return best_sector

    def _seek_floor_at(self, distance: int) -> float:
        """Smallest seek over any distance ``>= distance``."""
        floor = self._seek_floor
        if floor is None:
            seeks = self.disk.mechanics.seek_by_distance
            total = len(seeks)
            floor = [0.0] * total
            for d in range(total - 1, 0, -1):
                here = seeks[d]
                floor[d] = here if d == total - 1 else min(here, floor[d + 1])
            self._seek_floor = floor
        return floor[distance]

    def _cylinders_by_distance(self) -> Iterable[Tuple[int, int]]:
        """Yield (cylinder, distance) pairs, nearest first."""
        here = self.disk.head_cylinder
        total = self.disk.geometry.num_cylinders
        yield here, 0
        for distance in range(1, total):
            emitted = False
            if here + distance < total:
                yield here + distance, distance
                emitted = True
            if here - distance >= 0:
                yield here - distance, distance
                emitted = True
            if not emitted:
                break

    # -- GREEDY_CYLINDER --------------------------------------------------

    def _choose_greedy(self) -> Optional[int]:
        """Current cylinder first, then a one-direction cylinder sweep."""
        disk = self.disk
        mechanics = disk.mechanics
        now = disk.clock.now
        sector_time = mechanics.sector_time
        switch_slots = self._switch_slots
        found = self.freemap.nearest_free_in_cylinder(
            disk.head_cylinder,
            disk.head_head,
            mechanics.rotational_slot(now + 0.0),
            self.block_sectors,
            align=self.block_sectors,
            head_switch_slots=switch_slots,
        )
        if found is not None:
            return found[1]
        # Sweep in one direction, wrapping (Section 4.2's anti-trap rule).
        seeks = mechanics.seek_by_distance
        here = disk.head_cylinder
        total = disk.geometry.num_cylinders
        if self._sweep_cylinder == here:
            self._sweep_cylinder = (here + 1) % total
        cursor = self._sweep_cylinder
        for _ in range(total):
            # No existence pre-check: ``nearest_free_in_cylinder`` returns
            # ``None`` for a cylinder without a run from the counters and
            # its one fold, so a ``cylinder_has_run`` probe here would
            # just fold the cylinder twice.  Same cylinders succeed
            # either way.
            seek = seeks[cursor - here if cursor >= here else here - cursor]
            arrival = mechanics.rotational_slot(now + seek)
            found = self.freemap.nearest_free_in_cylinder(
                cursor,
                disk.head_head,
                arrival,
                self.block_sectors,
                align=self.block_sectors,
                head_switch_slots=max(
                    0.0, switch_slots - seek / sector_time
                ),
            )
            if found is not None:
                self._sweep_cylinder = cursor
                return found[1]
            cursor = (cursor + 1) % total
        return None

    # -- TRACK_FILL -------------------------------------------------------

    def _choose_track_fill(self) -> Optional[int]:
        """Fill empty tracks to the threshold; greedy fallback otherwise."""
        track = self._fill_track
        if track is not None and not self._track_usable(*track):
            track = None
        if track is None:
            # Nearest completely empty track, sweeping one direction --
            # asked only while the counters say one exists.
            freemap = self.freemap
            track = self._fill_track = (
                freemap.find_empty_track(self.disk.head_cylinder)
                if freemap._empty_tracks
                else None
            )
        if track is None:
            self.fallbacks += 1
            return self._choose_greedy()
        cylinder, head = track
        disk = self.disk
        mechanics = disk.mechanics
        arrival = mechanics.rotational_slot(
            disk.clock.now
            + mechanics.positioning_time(
                disk.head_cylinder, disk.head_head, cylinder, head
            )
        )
        found = self.freemap.nearest_free_run(
            cylinder, head, arrival, self.block_sectors, align=self.block_sectors
        )
        if found is None:
            # Shouldn't happen given _track_usable, but stay safe.
            self._fill_track = None
            self.fallbacks += 1
            return self._choose_greedy()
        return found[1]

    def _track_usable(self, cylinder: int, head: int) -> bool:
        """A fill track is usable while it is above the reserve threshold."""
        free = self.freemap.track_free_count(cylinder, head)
        return free >= max(self.reserve_sectors + self.block_sectors,
                           self.block_sectors)
