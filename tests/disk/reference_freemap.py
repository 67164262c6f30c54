"""The per-sector brute-force free map: the reference the differential
tests compare :class:`repro.disk.freemap.FreeSpaceMap` against.

One byte per sector, every query a Python loop over the sectors of a
track.  This was the seed's ``FreeSpaceMap``; it has the same public API
and gives the same answers at the original O(sectors) cost per query.
(The one deliberate behaviour change from the seed: the old ``gap <
align`` early exit in ``nearest_free_run`` was *wrong* whenever ``align``
does not divide ``sectors_per_track`` -- candidate gaps are then not all
congruent modulo ``align``, so a sub-``align`` gap need not be the
minimum.  Both classes return the true angular minimum, and
``test_freemap_oracle.py`` pins them to an independent brute force.)  It
lives here because nothing in ``src/`` calls it.
"""

from typing import Iterator, List, Optional, Tuple

from repro.disk.geometry import DiskGeometry


class ReferenceFreeSpaceMap:
    """Identical public API and answers to :class:`FreeSpaceMap` (see
    the module docstring)."""

    def __init__(self, geometry: DiskGeometry) -> None:
        self.geometry = geometry
        self._free = bytearray(b"\x01" * geometry.total_sectors)
        n_tracks = geometry.num_cylinders * geometry.tracks_per_cylinder
        per_track = geometry.sectors_per_track
        self._track_free: List[int] = [per_track] * n_tracks
        self._cyl_free: List[int] = [
            geometry.sectors_per_cylinder
        ] * geometry.num_cylinders
        self.free_sectors = geometry.total_sectors
        self._quarantined_set: set = set()

    def _track_index(self, cylinder: int, head: int) -> int:
        return cylinder * self.geometry.tracks_per_cylinder + head

    def is_free(self, sector: int) -> bool:
        self.geometry.check_sector(sector)
        return bool(self._free[sector])

    def run_is_free(self, sector: int, count: int) -> bool:
        if count <= 0:
            raise ValueError("count must be positive")
        self.geometry.check_sector(sector)
        self.geometry.check_sector(sector + count - 1)
        return all(self._free[sector : sector + count])

    def _set(self, sector: int, count: int, free: bool) -> None:
        if count <= 0:
            raise ValueError("count must be positive")
        self.geometry.check_sector(sector)
        self.geometry.check_sector(sector + count - 1)
        per_cyl = self.geometry.sectors_per_cylinder
        per_track = self.geometry.sectors_per_track
        value = 1 if free else 0
        for s in range(sector, sector + count):
            if free and s in self._quarantined_set:
                continue
            if self._free[s] == value:
                continue
            self._free[s] = value
            delta = 1 if free else -1
            self._track_free[s // per_track] += delta
            self._cyl_free[s // per_cyl] += delta
            self.free_sectors += delta

    def mark_used(self, sector: int, count: int = 1) -> None:
        self._set(sector, count, free=False)

    def mark_free(self, sector: int, count: int = 1) -> None:
        self._set(sector, count, free=True)

    def quarantine(self, sector: int, count: int = 1) -> None:
        if count <= 0:
            raise ValueError("count must be positive")
        self.geometry.check_sector(sector)
        self.geometry.check_sector(sector + count - 1)
        self._quarantined_set.update(range(sector, sector + count))
        self._set(sector, count, free=False)

    def set_quarantined(self, sectors) -> None:
        self._quarantined_set = set()
        for sector in sectors:
            self.quarantine(sector)

    def quarantined_sectors(self) -> List[int]:
        return sorted(self._quarantined_set)

    def is_quarantined(self, sector: int) -> bool:
        self.geometry.check_sector(sector)
        return sector in self._quarantined_set

    def track_free_count(self, cylinder: int, head: int) -> int:
        self.geometry.check_track(cylinder, head)
        return self._track_free[self._track_index(cylinder, head)]

    def cylinder_free_count(self, cylinder: int) -> int:
        if not 0 <= cylinder < self.geometry.num_cylinders:
            raise ValueError(f"cylinder {cylinder} out of range")
        return self._cyl_free[cylinder]

    @property
    def utilization(self) -> float:
        total = self.geometry.total_sectors
        return (total - self.free_sectors) / total

    def nearest_free_run(
        self,
        cylinder: int,
        head: int,
        start_slot: float,
        count: int,
        align: int = 1,
    ) -> Optional[Tuple[float, int]]:
        if count <= 0 or align <= 0:
            raise ValueError("count and align must be positive")
        geometry = self.geometry
        n = geometry.sectors_per_track
        if count > n:
            return None
        geometry.check_track(cylinder, head)
        track_idx = self._track_index(cylinder, head)
        if self._track_free[track_idx] < count:
            return None
        base = geometry.track_start(cylinder, head)
        skew = geometry.skew_offset(cylinder, head)
        best: Optional[Tuple[float, int]] = None
        for sect in range(0, n - count + 1, align):
            linear = base + sect
            if not all(self._free[linear : linear + count]):
                continue
            angle = (sect + skew) % n
            gap = (angle - start_slot) % n
            if best is None or gap < best[0]:
                best = (gap, linear)
        return best

    def has_aligned_run(
        self, cylinder: int, head: int, count: int, align: int = 1
    ) -> bool:
        if count <= 0 or align <= 0:
            raise ValueError("count and align must be positive")
        return self.nearest_free_run(cylinder, head, 0.0, count, align) is not None

    def cylinder_has_run(self, cylinder: int, count: int, align: int = 1) -> bool:
        if self.cylinder_free_count(cylinder) < count:
            return False
        return any(
            self.has_aligned_run(cylinder, head, count, align)
            for head in range(self.geometry.tracks_per_cylinder)
        )

    def nearest_free_in_cylinder(
        self,
        cylinder: int,
        current_head: int,
        start_slot: float,
        count: int,
        align: int = 1,
        head_switch_slots: float = 0.0,
    ) -> Optional[Tuple[float, int, int]]:
        best: Optional[Tuple[float, int, int]] = None
        for head in range(self.geometry.tracks_per_cylinder):
            penalty = 0.0 if head == current_head else head_switch_slots
            found = self.nearest_free_run(
                cylinder, head, start_slot + penalty, count, align
            )
            if found is None:
                continue
            gap, linear = found
            cost = penalty + gap
            if best is None or cost < best[0]:
                best = (cost, linear, head)
        return best

    def free_sector_iter(self, cylinder: int, head: int) -> Iterator[int]:
        base = self.geometry.track_start(cylinder, head)
        for offset in range(self.geometry.sectors_per_track):
            if self._free[base + offset]:
                yield base + offset

    def next_used_on_track(
        self, cylinder: int, head: int, start_offset: int = 0
    ) -> Optional[int]:
        self.geometry.check_track(cylinder, head)
        if not 0 <= start_offset <= self.geometry.sectors_per_track:
            raise ValueError(f"start offset {start_offset} out of range")
        base = self.geometry.track_start(cylinder, head)
        for offset in range(start_offset, self.geometry.sectors_per_track):
            if not self._free[base + offset]:
                return base + offset
        return None

    def find_empty_track(self, start_cylinder: int = 0) -> Optional[Tuple[int, int]]:
        geometry = self.geometry
        per_track = geometry.sectors_per_track
        total = geometry.num_cylinders
        for offset in range(total):
            cylinder = (start_cylinder + offset) % total
            if self.cylinder_free_count(cylinder) < per_track:
                continue
            for head in range(geometry.tracks_per_cylinder):
                if self.track_free_count(cylinder, head) == per_track:
                    return cylinder, head
        return None

    def tracks_by_free_count(
        self, minimum_free: int = 1
    ) -> List[Tuple[int, int, int]]:
        tracks_per_cyl = self.geometry.tracks_per_cylinder
        ranked = [
            (free, idx // tracks_per_cyl, idx % tracks_per_cyl)
            for idx, free in enumerate(self._track_free)
            if free >= minimum_free
        ]
        ranked.sort(key=lambda item: (-item[0], item[1], item[2]))
        return ranked

    def partial_tracks(self, minimum_free: int) -> List[Tuple[int, int]]:
        if minimum_free <= 0:
            raise ValueError("minimum_free must be positive")
        n = self.geometry.sectors_per_track
        tracks_per_cyl = self.geometry.tracks_per_cylinder
        return [
            divmod(idx, tracks_per_cyl)
            for idx, free in enumerate(self._track_free)
            if minimum_free <= free < n
        ]
