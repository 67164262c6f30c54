"""Free-space map with rotational-position-aware queries.

The eager-writing allocator (Section 4.2) needs to answer: *starting from
this angular position on this track, how many sector slots pass before an
aligned run of free sectors starts?*  :class:`FreeSpaceMap` keeps one
integer bitmask per track (bit ``s`` set means sector-in-track ``s`` is
free) plus per-track and per-cylinder free counts, so those queries run as
a handful of big-int bit operations rather than a Python loop over
sectors -- this is the hottest path of the whole simulator, exercised once
(or more) per eagerly-written block.

The run-finding trick: folding ``mask &= mask >> k`` with doubling shifts
leaves bit ``s`` set exactly when sectors ``s .. s+count-1`` are all free,
and because the shift feeds zeros in from the top, starts whose run would
cross the end of the track drop out automatically (runs never wrap a track
boundary, matching the allocator's no-straddle rule).  Counters are kept
incrementally with popcounts of the changed bits.

The per-track masks answer the single-track queries.  The cylinder query
-- "the nearest free run on *any* head of this cylinder", which every
eager write asks at least once -- reads a second view kept beside them:
one integer per cylinder in *angle-major* order, bit ``angle *
tracks_per_cylinder + head`` set when the sector passing under ``head``
at platter angle ``angle`` is free.  Skew is folded into the bit
position, so the sectors the heads see at one instant are adjacent bits
and "nearest in time, lowest head on a tie" is the lowest set bit at or
after the arrival angle: one fold over the whole cylinder and one or two
find-first-sets replace a loop over the heads.  ``_set`` keeps the view
current (one XOR of a stride-``tracks_per_cylinder`` run pattern per
flipped run); DESIGN.md section 8 has the layout and the argument.

The per-sector brute-force map this class is pinned to lives in
``tests/disk/reference_freemap.py`` (``ReferenceFreeSpaceMap``: same
public API, same answers, a Python loop per query).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from repro.disk.geometry import DiskGeometry

try:  # int.bit_count is Python >= 3.10; keep the 3.9 floor working.
    popcount = int.bit_count
except AttributeError:  # pragma: no cover - exercised only on 3.9

    def popcount(x: int) -> int:
        return bin(x).count("1")


def fold_free_runs(mask: int, count: int) -> int:
    """Bit ``s`` of the result is set iff bits ``s .. s+count-1`` of
    ``mask`` are all set (doubling-shift fold; zeros shifted in from the
    top kill starts whose run would overrun the mask's width)."""
    if count <= 0:
        raise ValueError("count must be positive")
    have = 1
    while have < count and mask:
        step = min(have, count - have)
        mask &= mask >> step
        have += step
    return mask


def lowest_set_bit(mask: int) -> int:
    """Index of the least-significant set bit (``mask`` must be nonzero)."""
    return (mask & -mask).bit_length() - 1


def nearest_set_bit(mask: int, n: int, phase: int) -> Optional[int]:
    """The cyclically nearest set bit of an ``n``-bit mask at or after
    ``phase`` (an integer slot); ``None`` when the mask is empty."""
    if mask == 0:
        return None
    ahead = mask >> phase
    if ahead:
        return phase + lowest_set_bit(ahead)
    return lowest_set_bit(mask)


#: ``(n, align) -> int with bits at 0, align, 2*align, ... < n`` cache.
_ALIGN_MASKS: dict = {}


def aligned_starts_mask(n: int, align: int) -> int:
    """The ``n``-bit mask with bits ``0, align, 2*align, ...`` set."""
    key = (n, align)
    mask = _ALIGN_MASKS.get(key)
    if mask is None:
        mask = 0
        for s in range(0, n, align):
            mask |= 1 << s
        _ALIGN_MASKS[key] = mask
    return mask


class FreeSpaceMap:
    """Tracks which physical sectors are free.

    All sectors start *free*; callers mark regions used as they allocate.
    """

    def __init__(self, geometry: DiskGeometry) -> None:
        self.geometry = geometry
        n = geometry.sectors_per_track
        self._n = n
        self._track_full_mask = (1 << n) - 1
        n_tracks = geometry.num_cylinders * geometry.tracks_per_cylinder
        #: One bitmask per track; bit ``s`` set == sector-in-track ``s`` free.
        self._masks: List[int] = [self._track_full_mask] * n_tracks
        self._track_free: List[int] = [n] * n_tracks
        #: How many tracks are completely free -- lets the track-fill
        #: allocator's empty-track scan answer "none" in O(1), which is
        #: the steady state at realistic utilizations.
        self._empty_tracks = n_tracks
        # Geometry is immutable, so the per-track skew (the geometry's
        # own table) and first-sector tables can be burned in once;
        # ``nearest_free_run`` is hot enough that recomputing them per
        # query shows up in profiles.
        self._skews: List[int] = geometry.skew_by_track
        self._bases: List[int] = [idx * n for idx in range(n_tracks)]
        #: Lazily-built ``track index -> (cylinder, head)`` table (the
        #: compactor's ``partial_tracks`` sweep is hot enough that the
        #: per-track divmod shows up).
        self._coords: Optional[List[Tuple[int, int]]] = None
        #: Per-track memo of the last angle-space run-starts mask
        #: ``nearest_free_run`` computed: ``(source_mask, count, align,
        #: rotated_starts)``.  An entry is valid only while the track's
        #: occupancy mask still equals the stored source (checked by
        #: value, so no invalidation hooks and no way to go stale).  Its
        #: callers -- the fill track and the compactor's hole search --
        #: re-probe a track with one (count, align) shape, so the
        #: fold/align/rotate pipeline usually short-circuits to a
        #: big-int compare.  (One slot per track cannot serve the
        #: cylinder query, where the data and map allocators' shapes
        #: alternate and evict each other; that query reads the
        #: cylinder view below instead.)
        self._run_memo: List[Optional[Tuple[int, int, int, int]]] = (
            [None] * n_tracks
        )
        tpc = geometry.tracks_per_cylinder
        self._tpc = tpc
        self._num_cylinders = geometry.num_cylinders
        self._total_sectors = geometry.total_sectors
        #: The cylinder view: one integer per cylinder, bit ``angle *
        #: tpc + head`` set == the sector under ``head`` at ``angle`` is
        #: free (the skew-rotated transpose of the cylinder's track
        #: masks).  Cylinders share the all-free integer until touched.
        self._cyl_bits = n * tpc
        self._cyl_masks: List[int] = [
            (1 << self._cyl_bits) - 1
        ] * geometry.num_cylinders
        #: ``_stride_runs[k]``: ``k`` bits ``tpc`` apart from bit 0 -- a
        #: run of ``k`` consecutive angles on head 0 of the cylinder
        #: view.  ``_stride_runs[n]`` is all of head 0's lane.
        stride_runs = [0]
        for k in range(n):
            stride_runs.append(stride_runs[k] | (1 << (k * tpc)))
        self._stride_runs: List[int] = stride_runs
        #: ``(count, align, skew of the cylinder's head 0) -> `` cylinder
        #: view bits where an aligned run of ``count`` sectors may start
        #: without crossing its track's end.  The geometry's skew is
        #: linear in head and cylinder, so head 0's skew fixes every
        #: head's: at most ``n`` masks per shape however many cylinders.
        self._valid_starts: Dict[Tuple[int, int, int], int] = {}
        self._cyl_free: List[int] = [
            geometry.sectors_per_cylinder
        ] * geometry.num_cylinders
        self.free_sectors = geometry.total_sectors
        #: One bitmask per track of *quarantined* sectors (bad media the
        #: resilience layer has retired), or ``None`` while nothing is
        #: quarantined -- the common case pays one ``is None`` test on the
        #: mark_free path and nothing anywhere else.  Quarantined sectors
        #: read as used and ``mark_free`` silently skips them, so bulk
        #: rebuilds (``mark_free(0, total_sectors)`` during recovery)
        #: preserve the quarantine without the caller special-casing it.
        self._quarantined: Optional[List[int]] = None

    # ------------------------------------------------------------------
    # Bookkeeping
    # ------------------------------------------------------------------

    def _track_index(self, cylinder: int, head: int) -> int:
        return cylinder * self.geometry.tracks_per_cylinder + head

    def is_free(self, sector: int) -> bool:
        self.geometry.check_sector(sector)
        track, offset = divmod(sector, self._n)
        return bool((self._masks[track] >> offset) & 1)

    def run_is_free(self, sector: int, count: int) -> bool:
        """True when all of ``sector .. sector+count-1`` are free."""
        if count <= 0:
            raise ValueError("count must be positive")
        self.geometry.check_sector(sector)
        self.geometry.check_sector(sector + count - 1)
        n = self._n
        while count > 0:
            track, offset = divmod(sector, n)
            span = min(n - offset, count)
            segment = ((1 << span) - 1) << offset
            if self._masks[track] & segment != segment:
                return False
            sector += span
            count -= span
        return True

    def _set(self, sector: int, count: int, free: bool) -> None:
        if count <= 0:
            raise ValueError("count must be positive")
        if sector < 0 or sector + count > self._total_sectors:
            # Both ends in range, as one test; the failing end raises.
            self.geometry.check_sector(sector)
            self.geometry.check_sector(sector + count - 1)
        n = self._n
        track = sector // n
        offset = sector - track * n
        if offset + count > n:
            # One single-track mark per track touched (recovery's
            # whole-disk rebuild; the allocator's unit never straddles).
            while count > 0:
                span = min(n - sector % n, count)
                self._set(sector, span, free)
                sector += span
                count -= span
            return
        run = segment = ((1 << count) - 1) << offset
        if free and self._quarantined is not None:
            segment &= ~self._quarantined[track]
            if segment == 0:
                return
        old = self._masks[track]
        flipped = (segment & ~old) if free else (segment & old)
        if not flipped:
            return
        flips = count if flipped == run else popcount(flipped)
        delta = flips if free else -flips
        self._masks[track] = old ^ flipped
        before = self._track_free[track]
        after = self._track_free[track] = before + delta
        if before == n or after == n:
            self._empty_tracks += 1 if after == n else -1
        tpc = self._tpc
        cylinder = track // tpc
        self._cyl_free[cylinder] += delta
        self.free_sectors += delta
        if flipped != run:
            # Quarantine holes or a partly-overlapping mark: the flipped
            # sectors are not one run.
            self._flip_in_cylinder(track, flipped)
            return
        # The whole run flipped (nearly every mark): its image in the
        # cylinder view is ``count`` bits ``tpc`` apart starting at the
        # run's angle, in two pieces when the angle wraps mid-run.
        head = track - cylinder * tpc
        angle = offset + self._skews[track]
        if angle >= n:
            angle -= n
        lead = n - angle
        runs = self._stride_runs
        if count <= lead:
            image = runs[count] << (angle * tpc + head)
        else:
            image = (runs[lead] << (angle * tpc + head)) | (
                runs[count - lead] << head
            )
        self._cyl_masks[cylinder] ^= image

    def _flip_in_cylinder(self, track: int, flipped: int) -> None:
        """XOR the cylinder view with the image of ``flipped``, any set
        of sectors of one track, one stride pattern per run of them."""
        n = self._n
        tpc = self._tpc
        skew = self._skews[track]
        if skew:
            flipped = (
                (flipped << skew) | (flipped >> (n - skew))
            ) & self._track_full_mask
        runs = self._stride_runs
        image = 0
        angle = 0
        while flipped:
            gap = (flipped & -flipped).bit_length() - 1
            flipped >>= gap
            angle += gap
            count = (~flipped & (flipped + 1)).bit_length() - 1
            image |= runs[count] << (angle * tpc)
            flipped >>= count
            angle += count
        cylinder = track // tpc
        self._cyl_masks[cylinder] ^= image << (track - cylinder * tpc)

    def mark_used(self, sector: int, count: int = 1) -> None:
        """Mark a run of sectors as occupied."""
        self._set(sector, count, free=False)

    def mark_free(self, sector: int, count: int = 1) -> None:
        """Mark a run of sectors as free (reusable).

        Quarantined sectors inside the run stay used: bad media never
        re-enters the allocation pool, even via the recovery rebuild's
        blanket ``mark_free`` over the whole disk.
        """
        self._set(sector, count, free=True)

    # ------------------------------------------------------------------
    # Quarantine (resilience layer)
    # ------------------------------------------------------------------

    def quarantine(self, sector: int, count: int = 1) -> None:
        """Permanently retire a run of sectors from allocation."""
        if count <= 0:
            raise ValueError("count must be positive")
        self.geometry.check_sector(sector)
        self.geometry.check_sector(sector + count - 1)
        if self._quarantined is None:
            self._quarantined = [0] * len(self._masks)
        n = self._n
        cursor, remaining = sector, count
        while remaining > 0:
            track, offset = divmod(cursor, n)
            span = min(n - offset, remaining)
            self._quarantined[track] |= ((1 << span) - 1) << offset
            cursor += span
            remaining -= span
        self._set(sector, count, free=False)

    def set_quarantined(self, sectors) -> None:
        """Replace the quarantine set wholesale (recovery-time load)."""
        self._quarantined = None
        for sector in sectors:
            self.quarantine(sector)

    def quarantined_sectors(self) -> List[int]:
        """Linear sector numbers currently quarantined, ascending."""
        if self._quarantined is None:
            return []
        out: List[int] = []
        n = self._n
        for track, mask in enumerate(self._quarantined):
            base = track * n
            while mask:
                low = mask & -mask
                out.append(base + low.bit_length() - 1)
                mask &= mask - 1
        return out

    def is_quarantined(self, sector: int) -> bool:
        self.geometry.check_sector(sector)
        if self._quarantined is None:
            return False
        track, offset = divmod(sector, self._n)
        return bool((self._quarantined[track] >> offset) & 1)

    def track_free_count(self, cylinder: int, head: int) -> int:
        tpc = self._tpc
        if not (0 <= cylinder < self._num_cylinders and 0 <= head < tpc):
            self.geometry.check_track(cylinder, head)  # raises
        return self._track_free[cylinder * tpc + head]

    def cylinder_free_count(self, cylinder: int) -> int:
        if not 0 <= cylinder < self.geometry.num_cylinders:
            raise ValueError(f"cylinder {cylinder} out of range")
        return self._cyl_free[cylinder]

    @property
    def utilization(self) -> float:
        """Fraction of sectors occupied, in [0, 1]."""
        total = self.geometry.total_sectors
        return (total - self.free_sectors) / total

    # ------------------------------------------------------------------
    # Rotational queries (the heart of eager writing)
    # ------------------------------------------------------------------

    def _run_starts(self, track_idx: int, count: int, align: int) -> int:
        """Bitmask of sector-in-track positions where an aligned free run of
        ``count`` sectors starts (no wrap past the end of the track)."""
        starts = fold_free_runs(self._masks[track_idx], count)
        if align > 1 and starts:
            starts &= aligned_starts_mask(self._n, align)
        return starts

    def nearest_free_run(
        self,
        cylinder: int,
        head: int,
        start_slot: float,
        count: int,
        align: int = 1,
    ) -> Optional[Tuple[float, int]]:
        """Find the angularly nearest free aligned run on one track.

        Args:
            cylinder, head: The track to search.
            start_slot: Angular position (in sector slots, possibly
                fractional) the head will occupy when it is ready to write.
            count: Number of contiguous sectors needed.
            align: Run start must satisfy ``sector_in_track % align == 0``.

        Returns:
            ``(gap_slots, linear_sector)`` where ``gap_slots`` is the angular
            distance (in sector slots) from ``start_slot`` to the start of
            the run, or ``None`` if the track has no such run.
        """
        if count <= 0 or align <= 0:
            raise ValueError("count and align must be positive")
        tpc = self._tpc
        if not (0 <= cylinder < self._num_cylinders and 0 <= head < tpc):
            self.geometry.check_track(cylinder, head)  # raises
        n = self._n
        if count > n:
            return None
        track_idx = cylinder * tpc + head
        if self._track_free[track_idx] < count:
            return None
        # Inlined fold / align-filter / rotate / nearest-bit sequence --
        # this method is the simulator's hottest, and in CPython the helper
        # calls cost more than the big-int ops they wrap.
        source = self._masks[track_idx]
        skew = self._skews[track_idx]
        entry = self._run_memo[track_idx]
        if (
            entry is not None
            and entry[0] == source
            and entry[1] == count
            and entry[2] == align
        ):
            mask = entry[3]
        else:
            mask = source
            have = 1
            while have < count and mask:
                step = have if have < count - have else count - have
                mask &= mask >> step
                have += step
            if align > 1 and mask:
                amask = _ALIGN_MASKS.get((n, align))
                if amask is None:
                    amask = aligned_starts_mask(n, align)
                mask &= amask
            # Rotate the start set into angle space; the memo stores the
            # rotated form so a hit skips the whole pipeline.
            if skew and mask:
                mask = (
                    (mask << skew) | (mask >> (n - skew))
                ) & self._track_full_mask
            self._run_memo[track_idx] = (source, count, align, mask)
        if mask == 0:
            return None
        slot = start_slot % n
        phase = int(slot)
        if phase != slot:
            phase += 1
            if phase == n:
                phase = 0
        ahead = mask >> phase
        if ahead:
            angle = phase + ((ahead & -ahead).bit_length() - 1)
        else:
            angle = (mask & -mask).bit_length() - 1
        gap = (angle - start_slot) % n
        sect = angle - skew
        if sect < 0:
            sect += n
        return gap, self._bases[track_idx] + sect

    def segment_free(self, sector: int, count: int) -> bool:
        """True when the ``count`` sectors starting at linear ``sector``
        are all free.  The segment must not cross a track boundary --
        this is the O(1) probe the batched allocator's run extension
        uses on block-aligned, track-local candidates."""
        if count <= 0:
            raise ValueError("count must be positive")
        n = self._n
        track_idx, offset = divmod(sector, n)
        if offset + count > n:
            raise ValueError("segment must not cross a track boundary")
        self.geometry.check_sector(sector)
        segment = ((1 << count) - 1) << offset
        return self._masks[track_idx] & segment == segment

    def has_aligned_run(
        self, cylinder: int, head: int, count: int, align: int = 1
    ) -> bool:
        """Cheap existence test: would :meth:`nearest_free_run` succeed?"""
        if count <= 0 or align <= 0:
            raise ValueError("count and align must be positive")
        self.geometry.check_track(cylinder, head)
        if count > self._n:
            return False
        track_idx = self._track_index(cylinder, head)
        if self._track_free[track_idx] < count:
            return False
        return self._run_starts(track_idx, count, align) != 0

    def cylinder_has_run(self, cylinder: int, count: int, align: int = 1) -> bool:
        """True when any track of the cylinder holds an aligned free run:
        would :meth:`nearest_free_in_cylinder` succeed?"""
        if count <= 0 or align <= 0:
            raise ValueError("count and align must be positive")
        if self.cylinder_free_count(cylinder) < count or count > self._n:
            return False
        return self._cylinder_starts(cylinder, count, align) != 0

    def _cylinder_starts(self, cylinder: int, count: int, align: int) -> int:
        """Cylinder-view mask of where an aligned free run of ``count``
        sectors starts, on any head (``1 <= count <= n``)."""
        mask = self._cyl_masks[cylinder]
        if count == 1 and align == 1:
            return mask
        tpc = self._tpc
        if count > 1 and mask:
            # Consecutive sectors are consecutive angles *cyclically*
            # (only the track's end breaks a run, and the valid-starts
            # mask below drops those starts), so extend the view by the
            # ``count - 1`` angles a run starting near the top wraps
            # onto; then the doubling fold needs no rotation.
            mask |= (mask & ((1 << ((count - 1) * tpc)) - 1)) << self._cyl_bits
            have = 1
            while have < count:
                step = have if have < count - have else count - have
                mask &= mask >> (step * tpc)
                have += step
        key = (count, align, self._skews[cylinder * tpc])
        valid = self._valid_starts.get(key)
        if valid is None:
            # Aligned starts whose run stays on the track, every head's
            # rotated by its skew; also cuts the fold's extension off.
            n = self._n
            valid = 0
            for head in range(tpc):
                skew = self._skews[cylinder * tpc + head]
                for sect in range(0, n - count + 1, align):
                    valid |= 1 << ((sect + skew) % n * tpc + head)
            self._valid_starts[key] = valid
        return mask & valid

    def nearest_free_in_cylinder(
        self,
        cylinder: int,
        current_head: int,
        start_slot: float,
        count: int,
        align: int = 1,
        head_switch_slots: float = 0.0,
    ) -> Optional[Tuple[float, int, int]]:
        """Find the best free run across all tracks of one cylinder.

        This is the two-way comparison of the paper's single-cylinder model
        (Section 2.2): the current track competes against the other tracks,
        whose candidates are penalised by the head-switch time expressed in
        sector slots.

        Returns ``(cost_slots, linear_sector, head)`` or ``None``, where
        ``cost_slots`` is the angular delay from ``start_slot`` until the
        write could begin.  Non-current tracks are queried from the
        *post-settle* slot (``start_slot + head_switch_slots``): a run
        inside the settle window is reachable only a revolution later, so
        the nearest run *after* the window -- which a query from
        ``start_slot`` would never surface -- is the one that competes.
        The answer is the minimum by ``(cost, head)``.

        Answered from the cylinder view: in angle-major order the lowest
        set bit at or after an arrival angle is the soonest run, lowest
        head first among runs at one angle (costs one angle apart differ
        by a whole slot, far above rounding at any realistic penalty).
        So one find-first-set on the current head's lane, and -- unless
        that already costs less than the penalty every other head pays
        -- one over all the other lanes, replace a loop over the heads.
        """
        if count <= 0 or align <= 0:
            raise ValueError("count and align must be positive")
        if not 0 <= cylinder < self._num_cylinders:
            self.geometry.check_track(cylinder, 0)  # raises
        n = self._n
        if count > n:
            return None
        if self._cyl_free[cylinder] < count:
            # No track can hold a run the whole cylinder cannot.
            return None
        if count == 1 and align == 1:
            # Any free sector will do (the map allocator's only shape):
            # the view itself is the set of starts.
            others = self._cyl_masks[cylinder]
        else:
            others = self._cylinder_starts(cylinder, count, align)
        if not others:
            return None
        tpc = self._tpc
        best: Optional[Tuple[float, int, int]] = None
        if 0 <= current_head < tpc:
            lane = others & (self._stride_runs[n] << current_head)
            if lane:
                slot = start_slot % n
                phase = int(slot)
                if phase != slot:
                    phase += 1
                    if phase == n:
                        phase = 0
                ahead = lane >> (phase * tpc)
                if ahead:
                    angle = phase + ((ahead & -ahead).bit_length() - 1) // tpc
                else:
                    angle = ((lane & -lane).bit_length() - 1) // tpc
                cost = (angle - start_slot) % n
                track = cylinder * tpc + current_head
                sect = angle - self._skews[track]
                if sect < 0:
                    sect += n
                best = (cost, self._bases[track] + sect, current_head)
                if cost < head_switch_slots:
                    # Every other head pays at least the penalty.  (At
                    # equality a lower head with a zero gap ties and
                    # wins, so the race below must run.)
                    return best
                others ^= lane
        if others:
            penalised_slot = start_slot + head_switch_slots
            slot = penalised_slot % n
            phase = int(slot)
            if phase != slot:
                phase += 1
                if phase == n:
                    phase = 0
            ahead = others >> (phase * tpc)
            if ahead:
                angle, head = divmod((ahead & -ahead).bit_length() - 1, tpc)
                angle += phase
            else:
                angle, head = divmod((others & -others).bit_length() - 1, tpc)
            cost = head_switch_slots + ((angle - penalised_slot) % n)
            if (
                best is None
                or cost < best[0]
                or (cost == best[0] and head < current_head)
            ):
                track = cylinder * tpc + head
                sect = angle - self._skews[track]
                if sect < 0:
                    sect += n
                best = (cost, self._bases[track] + sect, head)
        return best

    def nearest_hole_in_cylinder(
        self,
        cylinder: int,
        current_head: int,
        own_slot: float,
        other_slot: float,
        count: int,
        align: int = 1,
        skip_head: Optional[int] = None,
    ) -> Tuple[Optional[Tuple[float, int]], Optional[Tuple[float, int]]]:
        """The nearest *hole* -- an aligned free run on a track that is
        not completely free -- on the current head's track and on the
        best other track of one cylinder: the compactor's question.

        Every track of a cylinder other than the one under
        ``current_head`` costs the arm the same positioning, so a search
        that prices a whole cylinder needs two arrival angles, not one
        per track: ``own_slot`` for the current head's track and
        ``other_slot`` for all the rest.  Returns ``(own, other)``, each
        ``(gap_slots, linear_sector)`` exactly as
        :meth:`nearest_free_run` would report it from that angle, or
        ``None``; ``other`` is the minimum by ``(gap, head)`` over the
        other tracks.  Completely free tracks are left out (hole-plugging
        never consumes one), and so is ``skip_head``'s track (the one
        being emptied).

        Answered from the cylinder view with the free tracks' lanes
        (read off the per-track counters) and the skipped lane masked
        off: one find-first-set on the current head's lane and one over
        all the others, where bit order ``angle * tpc + head`` makes the
        lowest set bit at or after the arrival angle the ``(gap, head)``
        minimum.
        """
        if count <= 0 or align <= 0:
            raise ValueError("count and align must be positive")
        tpc = self._tpc
        if not 0 <= cylinder < self._num_cylinders or not (
            skip_head is None or 0 <= skip_head < tpc
        ):
            self.geometry.check_track(cylinder, skip_head or 0)  # raises
        n = self._n
        if count > n or self._cyl_free[cylinder] < count:
            return None, None
        others = self._cylinder_starts(cylinder, count, align)
        head_lane = self._stride_runs[n]
        # Bit ``head`` set == leave that track out: the skipped one and
        # every completely free one (found by count-then-index, so a
        # cylinder without one costs a slice and a C-level scan).
        excluded = 0 if skip_head is None else 1 << skip_head
        frees = self._track_free[cylinder * tpc : (cylinder + 1) * tpc]
        head = -1
        for _ in range(frees.count(n)):
            head = frees.index(n, head + 1)
            excluded |= 1 << head
        if excluded and others:
            # The lanes' bits sit ``tpc`` apart and ``excluded`` is under
            # ``tpc`` bits wide, so the product is the union of the
            # excluded heads' lanes (no two partial products overlap).
            others &= ~(head_lane * excluded)
        if not others:
            return None, None
        own: Optional[Tuple[float, int]] = None
        if 0 <= current_head < tpc:
            lane = others & (head_lane << current_head)
            if lane:
                own = self._soonest(cylinder, lane, own_slot)
                others ^= lane
                if not others:
                    return own, None
        return own, self._soonest(cylinder, others, other_slot)

    def _soonest(
        self, cylinder: int, bits: int, slot: float
    ) -> Tuple[float, int]:
        """``(gap_slots, linear_sector)`` of the first set bit of
        ``bits`` -- a non-empty subset of ``cylinder``'s view -- at or
        after arrival angle ``slot``, wrapping: the minimum by ``(gap,
        head)``.  (``nearest_free_in_cylinder``, on the allocator's hot
        path, keeps this sequence inline.)"""
        n = self._n
        tpc = self._tpc
        reduced = slot % n
        phase = int(reduced)
        if phase != reduced:
            phase += 1
            if phase == n:
                phase = 0
        ahead = bits >> (phase * tpc)
        if ahead:
            angle, head = divmod((ahead & -ahead).bit_length() - 1, tpc)
            angle += phase
        else:
            angle, head = divmod((bits & -bits).bit_length() - 1, tpc)
        track = cylinder * tpc + head
        sect = angle - self._skews[track]
        if sect < 0:
            sect += n
        return (angle - slot) % n, self._bases[track] + sect

    def partial_tracks(self, minimum_free: int) -> List[Tuple[int, int]]:
        """``(cylinder, head)`` of every *partially used* track holding at
        least ``minimum_free`` free sectors (``minimum_free <= free <
        sectors_per_track``), in track order -- the compactor's
        hole-plugging candidate set, answered from the counters alone."""
        if minimum_free <= 0:
            raise ValueError("minimum_free must be positive")
        n = self._n
        coords = self._coords
        if coords is None:
            tracks_per_cyl = self.geometry.tracks_per_cylinder
            coords = self._coords = [
                divmod(idx, tracks_per_cyl)
                for idx in range(len(self._track_free))
            ]
        return [
            coords[idx]
            for idx, free in enumerate(self._track_free)
            if minimum_free <= free < n
        ]

    # ------------------------------------------------------------------
    # Track scans (compactor / reorganizer helpers)
    # ------------------------------------------------------------------

    def free_sector_iter(self, cylinder: int, head: int) -> Iterator[int]:
        """Yield linear sector numbers of the sectors currently free on one
        track (a snapshot: mutations during iteration are not reflected)."""
        base = self.geometry.track_start(cylinder, head)
        mask = self._masks[self._track_index(cylinder, head)]
        while mask:
            low = mask & -mask
            yield base + low.bit_length() - 1
            mask &= mask - 1

    def next_used_on_track(
        self, cylinder: int, head: int, start_offset: int = 0
    ) -> Optional[int]:
        """Linear sector number of the first *used* sector at or after
        ``start_offset`` on the track, or ``None`` when the rest of the
        track is free.  Reads live state, so a scan that frees or fills
        sectors as it goes (the compactor) sees its own effects."""
        tpc = self._tpc
        if not (0 <= cylinder < self._num_cylinders and 0 <= head < tpc):
            self.geometry.check_track(cylinder, head)  # raises
        if not 0 <= start_offset <= self._n:
            raise ValueError(f"start offset {start_offset} out of range")
        track_idx = cylinder * tpc + head
        used = (~self._masks[track_idx] & self._track_full_mask) >> start_offset
        if used == 0:
            return None
        return (
            self._bases[track_idx]
            + start_offset
            + (used & -used).bit_length()
            - 1
        )

    def find_empty_track(self, start_cylinder: int = 0) -> Optional[Tuple[int, int]]:
        """Nearest completely empty track, sweeping cylinders upward from
        ``start_cylinder`` (wrapping) -- the track-fill allocator's scan,
        answered from the counters alone."""
        if self._empty_tracks == 0:
            return None
        geometry = self.geometry
        per_track = self._n
        total = geometry.num_cylinders
        for offset in range(total):
            cylinder = (start_cylinder + offset) % total
            if self._cyl_free[cylinder] < per_track:
                continue
            base = cylinder * geometry.tracks_per_cylinder
            for head in range(geometry.tracks_per_cylinder):
                if self._track_free[base + head] == per_track:
                    return cylinder, head
        return None

    def tracks_by_free_count(
        self, minimum_free: int = 1
    ) -> List[Tuple[int, int, int]]:
        """``(free_count, cylinder, head)`` for every track holding at least
        ``minimum_free`` free sectors, sorted most-free first (ties in track
        order).  Lets callers visit candidate tracks best-first and stop at
        the first success instead of pricing every track on the disk."""
        tracks_per_cyl = self.geometry.tracks_per_cylinder
        ranked = [
            (free, idx // tracks_per_cyl, idx % tracks_per_cyl)
            for idx, free in enumerate(self._track_free)
            if free >= minimum_free
        ]
        ranked.sort(key=lambda item: (-item[0], item[1], item[2]))
        return ranked
