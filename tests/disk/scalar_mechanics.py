"""The closed-form scalar mechanics: the reference the differential tests
compare :class:`repro.disk.mechanics.DiskMechanics` against.

One candidate at a time, straight from the spec and the geometry: the
seek curve evaluated per call (``sqrt`` and all), the skew derived per
call through the validated ``DiskGeometry`` methods, and the rotational
slot with its boundary snaps in the plainest form -- always the
``ulp()`` test, ``round()`` for the nearest integer, no gates.  This was
``DiskMechanics`` before the table-driven class replaced it; it lives
here because nothing in ``src/`` calls it any more.
"""

import math
from typing import Optional

from repro.disk.geometry import DiskGeometry


class ScalarMechanics:
    def __init__(self, geometry: DiskGeometry) -> None:
        self.spec = geometry.spec
        self.geometry = geometry
        self.rotation_time = self.spec.rotation_time
        self.sector_time = self.spec.sector_time
        self.sectors_per_track = self.spec.sectors_per_track

    def rotational_slot(self, now: float) -> float:
        rem = now % self.rotation_time
        if rem <= 0.0 or rem <= 2.0 * math.ulp(now):
            return 0.0
        frac = rem / self.rotation_time
        if frac >= 1.0:
            return 0.0
        slot = frac * self.sectors_per_track
        nearest = round(slot)
        if nearest != slot and abs(rem - nearest * self.sector_time) <= now * 2e-14:
            return 0.0 if nearest == self.sectors_per_track else float(nearest)
        return slot

    def wait_for_slot(self, now: float, target_slot: int) -> float:
        delta = (target_slot - self.rotational_slot(now)) % self.sectors_per_track
        return delta * self.sector_time

    def positioning_time(
        self, from_cylinder: int, from_head: int, to_cylinder: int, to_head: int
    ) -> float:
        seek = self.spec.seek_time(abs(to_cylinder - from_cylinder))
        switch = 0.0 if from_head == to_head else self.spec.head_switch_time
        return max(seek, switch)

    def price(
        self, now: float, head_cyl: int, head_head: int, sector: int,
        extra: Optional[float] = None,
    ) -> float:
        """Access time of one candidate, composed in service order: the
        lead (a host-issued request's SCSI overhead) delays the platter
        first, then positioning, then the rotational wait."""
        cylinder, head, sect = self.geometry.decompose(sector)
        positioning = self.positioning_time(head_cyl, head_head, cylinder, head)
        target = self.geometry.angle_of(cylinder, head, sect)
        if extra is None:
            return positioning + self.wait_for_slot(now + positioning, target)
        return (extra + positioning) + self.wait_for_slot(
            (now + extra) + positioning, target
        )
