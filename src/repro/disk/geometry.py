"""Disk geometry: linear sector numbers, physical coordinates, skew.

Sectors are numbered linearly in the conventional order: all sectors of
track (cylinder 0, head 0), then (cylinder 0, head 1), ..., then cylinder 1,
and so on.  Track and cylinder skew stagger the angular position of sector 0
on successive tracks so that sequential transfers survive head switches and
single-cylinder seeks without losing a revolution -- which matters for the
paper's sequential-bandwidth phases (Figure 7).
"""

from __future__ import annotations

from typing import Tuple

from repro.disk.specs import DiskSpec


class DiskGeometry:
    """Coordinate math for a (possibly truncated) disk.

    Args:
        spec: The drive's parameter set.
        num_cylinders: How many cylinders to expose.  Defaults to the
            spec's ``sim_cylinders`` (the paper simulates a ~24 MB slice of
            each drive because the ramdisk lived in kernel memory).
    """

    def __init__(self, spec: DiskSpec, num_cylinders: int = 0) -> None:
        if num_cylinders < 0:
            raise ValueError("num_cylinders must be non-negative")
        self.spec = spec
        self.num_cylinders = num_cylinders or spec.sim_cylinders
        if self.num_cylinders > spec.num_cylinders:
            raise ValueError(
                f"{spec.name} has only {spec.num_cylinders} cylinders, "
                f"cannot expose {self.num_cylinders}"
            )
        self.sectors_per_track = spec.sectors_per_track
        self.tracks_per_cylinder = spec.tracks_per_cylinder
        self.sectors_per_cylinder = self.sectors_per_track * self.tracks_per_cylinder
        self.total_sectors = self.sectors_per_cylinder * self.num_cylinders
        self.capacity_bytes = self.total_sectors * spec.sector_bytes
        #: Skew of every track (index ``cylinder * tracks_per_cylinder +
        #: head``), burned in once: the angular queries sit on the
        #: allocator/scheduler hot path and the per-call derivation (two
        #: multiplies and a modulo off spec attributes) dominated them.
        #: The mechanics and the free map hold this same list.
        track_skew = spec.track_skew_sectors
        cyl_skew = spec.cylinder_skew_sectors
        n = self.sectors_per_track
        self.skew_by_track = [
            (head * track_skew + cylinder * cyl_skew) % n
            for cylinder in range(self.num_cylinders)
            for head in range(self.tracks_per_cylinder)
        ]

    # ------------------------------------------------------------------
    # Linear <-> physical coordinates
    # ------------------------------------------------------------------

    def decompose(self, sector: int) -> Tuple[int, int, int]:
        """Linear sector number -> (cylinder, head, sector-in-track)."""
        self.check_sector(sector)
        cylinder, rest = divmod(sector, self.sectors_per_cylinder)
        head, sect = divmod(rest, self.sectors_per_track)
        return cylinder, head, sect

    def compose(self, cylinder: int, head: int, sect: int) -> int:
        """(cylinder, head, sector-in-track) -> linear sector number."""
        self.check_track(cylinder, head)
        if not 0 <= sect < self.sectors_per_track:
            raise ValueError(f"sector-in-track {sect} out of range")
        return (
            cylinder * self.sectors_per_cylinder
            + head * self.sectors_per_track
            + sect
        )

    def track_start(self, cylinder: int, head: int) -> int:
        """Linear sector number of the first sector on a track."""
        return self.compose(cylinder, head, 0)

    def check_sector(self, sector: int) -> None:
        if not 0 <= sector < self.total_sectors:
            raise ValueError(
                f"sector {sector} outside disk of {self.total_sectors} sectors"
            )

    def check_track(self, cylinder: int, head: int) -> None:
        if not 0 <= cylinder < self.num_cylinders:
            raise ValueError(f"cylinder {cylinder} out of range")
        if not 0 <= head < self.tracks_per_cylinder:
            raise ValueError(f"head {head} out of range")

    # ------------------------------------------------------------------
    # Skew and angular positions
    # ------------------------------------------------------------------

    def skew_offset(self, cylinder: int, head: int) -> int:
        """Angular offset (in sector slots) of sector 0 on a given track."""
        self.check_track(cylinder, head)
        return self.skew_by_track[cylinder * self.tracks_per_cylinder + head]

    def angle_of(self, cylinder: int, head: int, sect: int) -> int:
        """Angular slot (0..n-1) at which a sector starts on the platter."""
        return (sect + self.skew_offset(cylinder, head)) % self.sectors_per_track

    def sector_at_angle(self, cylinder: int, head: int, slot: int) -> int:
        """Inverse of :meth:`angle_of`: which sector-in-track starts at a slot."""
        return (slot - self.skew_offset(cylinder, head)) % self.sectors_per_track

    def __repr__(self) -> str:
        return (
            f"DiskGeometry({self.spec.name}, cylinders={self.num_cylinders}, "
            f"capacity={self.capacity_bytes / 2**20:.1f}MB)"
        )
