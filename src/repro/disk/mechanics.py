"""Disk mechanics: where the head is and how long movements take.

The rotational position of the platter is a pure function of simulated time
(the spindle never stops or slips in this model), so the service-time engine
can compute rotational waits closed-form instead of stepping an event queue.

Eager writing's core move is pricing *every* free sector near the head and
picking the cheapest, so the simulator's whole-run throughput is bounded by
how fast ``positioning + rotational wait`` can be evaluated: the service
path, the eager allocator's free-run sweep, SATF's pick-next over the
pending queue and the compactor's hole search all ask the same question.
:class:`DiskMechanics` therefore answers from flat tables burned in at
construction -- the seek curve by cylinder distance, the angular skew of
every track -- and :meth:`DiskMechanics.price_candidates` evaluates a whole
candidate set in one pass of a tight loop over them.
:meth:`DiskMechanics.access` is the other half: the position -> rotate ->
transfer arithmetic of *servicing* one access, written once, which the
disk's service path and the allocator's run projection both call
(``tests/disk/test_access_kernel.py`` pins each caller to composing it by
hand).  The closed-form scalar composition (``spec.seek_time`` with its
``sqrt``, per-call skew derivation, always-``ulp()`` slot) is the
reference ``tests/disk/test_batch_mechanics.py`` pins every answer
against, exactly.
"""

from __future__ import annotations

from math import ulp
from typing import List, Optional, Sequence, Tuple

from repro.disk.geometry import DiskGeometry

#: ``(x + _ROUND_MAGIC) - _ROUND_MAGIC`` is round-half-to-even for
#: ``0 <= x < 2**51`` (the sum lands where doubles have ulp 1, and the
#: magic constant is even, so IEEE ties-to-even resolves ties exactly
#: like :func:`round`): two float adds in place of a builtin call, in
#: loops where the call itself is the cost.  Slot values are bounded by
#: sectors-per-track, nowhere near 2**51.
_ROUND_MAGIC = 6755399441055744.0  # 2**52 + 2**51


class DiskMechanics:
    """Timing primitives for one geometry (which carries its spec).

    The tables are burned in at construction (geometry is immutable):

    * ``seek_by_distance[d]`` -- ``spec.seek_time(d)`` for every cylinder
      distance the geometry can produce;
    * ``skew_by_track[cylinder * tracks_per_cylinder + head]`` -- the
      angular offset of sector 0 on every track (the geometry's own list).

    :meth:`access` is the one position -> rotate -> transfer kernel the
    service path (``Disk.read``/``write``/``write_run``) and
    ``EagerAllocator.allocate_run``'s projection share; the sweeps that
    price without servicing (``EagerAllocator``'s policies,
    ``Compactor._find_hole``) read the tables and the scalar attributes
    directly.
    """

    def __init__(self, geometry: DiskGeometry) -> None:
        spec = geometry.spec
        self.rotation_time = spec.rotation_time
        self.sector_time = spec.sector_time
        self.head_switch_time = spec.head_switch_time
        self.sectors_per_track = geometry.sectors_per_track
        self.tracks_per_cylinder = geometry.tracks_per_cylinder
        self.seek_by_distance: List[float] = [
            spec.seek_time(d) for d in range(geometry.num_cylinders)
        ]
        self.skew_by_track: List[int] = geometry.skew_by_track

    def rotational_slot(self, now: float) -> float:
        """Continuous angular position (in sector slots) at time ``now``.

        The integer part is the slot currently under the head; the fraction
        is progress through that slot.

        Float-boundary normalization: when ``now`` is mathematically a
        multiple of the rotation time, the float that reaches us is often
        a hair *above* it (``k * rotation_time`` rounds up by as much as
        half an ulp, and a sum of service times can land a further ulp
        past the boundary).  The remainder is then pure rounding noise --
        comparable to the spacing of floats at magnitude ``now`` -- but
        without normalization it reads as "a hair past slot 0", and
        :meth:`wait_for_slot` would charge a spurious (near-)full
        revolution for attoseconds of simulated time.  Remainders at or
        below ``2 * ulp(now)`` (covering the worst case of one rounding
        plus one neighbouring float, ~1e-15 of a sector time) therefore
        snap to the boundary (slot 0.0).  The ``frac >= 1.0`` guard
        restores the documented ``[0, n)`` range in the opposite corner,
        where ``rem / rotation_time`` rounds up to exactly 1.0.

        The same argument applies at every *interior* sector boundary: a
        chain of service times that mathematically ends exactly where a
        sector starts (the normal case for back-to-back transfers)
        accumulates one rounding per arithmetic step, so the float sum
        lands within a few ulp of the boundary on either side.  Read a
        hair *past* it, the next access to that sector would charge a
        full spurious revolution -- which is how the eager allocator used
        to skip the physically adjacent block after almost every write.
        Slots within ``now * 2e-14`` seconds of a sector boundary (about
        90 ulp of the clock, still nine orders of magnitude below a
        sector time at simulation scales) therefore snap to it.

        The gate in front only decides whether the ``ulp()`` call is
        needed: for normal ``now`` (guaranteed by ``rem > 4.5e-308``,
        since ``now >= rem``) ``2 * ulp(now)`` never exceeds ``now *
        2**-51 < now * 1e-15``, so a larger remainder is past the
        zero-boundary snap without asking; subnormal times, where ulp
        stops scaling, take the exact test.  This arithmetic is written
        out three times -- here and in each of :meth:`price_candidates`'
        two loops, where a call per candidate is the cost -- and
        ``test_three_copies_agree`` fails if they drift.
        """
        if now < 0.0:
            raise ValueError("time must be non-negative")
        rotation = self.rotation_time
        rem = now % rotation
        if (rem <= 4.5e-308 or rem <= now * 1e-15) and (
            rem <= 0.0 or rem <= 2.0 * ulp(now)
        ):
            return 0.0
        frac = rem / rotation
        if frac >= 1.0:
            return 0.0
        n = self.sectors_per_track
        slot = frac * n
        nearest = (slot + _ROUND_MAGIC) - _ROUND_MAGIC
        if nearest != slot and abs(rem - nearest * self.sector_time) <= now * 2e-14:
            return 0.0 if nearest == n else nearest
        return slot

    def wait_for_slot(self, now: float, target_slot: int) -> float:
        """Seconds until the *start* of ``target_slot`` next passes the head.

        Returns 0.0 only when the head is exactly at the slot boundary;
        otherwise waits for the next pass (up to one full revolution minus
        epsilon).
        """
        if not 0 <= target_slot < self.sectors_per_track:
            raise ValueError(f"slot {target_slot} out of range")
        position = self.rotational_slot(now)
        delta = (target_slot - position) % self.sectors_per_track
        return delta * self.sector_time

    def transfer_time(self, sectors: int) -> float:
        """Media transfer time for ``sectors`` contiguous sectors."""
        if sectors < 0:
            raise ValueError("sector count must be non-negative")
        return sectors * self.sector_time

    def positioning_time(
        self,
        from_cylinder: int,
        from_head: int,
        to_cylinder: int,
        to_head: int,
    ) -> float:
        """Combined arm positioning cost, answered from the seek table.

        Seeking and head switching proceed concurrently in modern drives,
        so the cost is the maximum of the two, not the sum.
        """
        distance = to_cylinder - from_cylinder
        if distance < 0:
            distance = -distance
        seek = self.seek_by_distance[distance]
        if from_head != to_head and self.head_switch_time > seek:
            return self.head_switch_time
        return seek

    def angle_of(self, cylinder: int, head: int, sect: int) -> int:
        """Angular slot of a sector, answered from the skew table."""
        angle = sect + self.skew_by_track[
            cylinder * self.tracks_per_cylinder + head
        ]
        n = self.sectors_per_track
        return angle - n if angle >= n else angle

    def access(
        self,
        now: float,
        head_cylinder: int,
        head_head: int,
        sector: int,
        count: int,
    ) -> Tuple[float, float, float, float, int, int]:
        """Position, rotate, transfer: the service arithmetic of one
        access that stays on one track, issued at ``now`` with the arm at
        ``(head_cylinder, head_head)``.

        Returns ``(finish, positioning, rotational, transfer, cylinder,
        head)``: the three costs, the time the last sector has passed
        (``((now + positioning) + rotational) + transfer``, the order a
        clock advanced once per phase adds them in) and the track the
        arm ends on.  This is :meth:`positioning_time`, :meth:`angle_of`,
        :meth:`wait_for_slot` at the post-positioning time and
        :meth:`transfer_time`, fused; the caller has validated the run
        (``Disk._check_run``).  Every serviced access goes through here:
        ``Disk.read``/``write``, each block of ``Disk.write_run`` and
        each block ``EagerAllocator.allocate_run`` projects.
        """
        n = self.sectors_per_track
        tpc = self.tracks_per_cylinder
        track = sector // n
        cylinder = track // tpc
        head = track - cylinder * tpc
        distance = cylinder - head_cylinder
        if distance < 0:
            distance = -distance
        positioning = self.seek_by_distance[distance]
        if head != head_head and self.head_switch_time > positioning:
            positioning = self.head_switch_time
        arrival = now + positioning
        angle = sector - track * n + self.skew_by_track[track]
        if angle >= n:
            angle -= n
        sector_time = self.sector_time
        rotational = ((angle - self.rotational_slot(arrival)) % n) * sector_time
        transfer = count * sector_time
        return (
            (arrival + rotational) + transfer,
            positioning,
            rotational,
            transfer,
            cylinder,
            head,
        )

    def price_candidates(
        self,
        now: float,
        head_cyl: int,
        head_head: int,
        candidates: Sequence[int],
        extra_lead: Optional[Sequence[float]] = None,
    ) -> List[float]:
        """Price every candidate in one pass.

        Args:
            now: Current simulated time (the platter position derives
                from it).
            head_cyl, head_head: Where the arm is.
            candidates: Linear sector numbers; each is priced as the
                start of an access.
            extra_lead: Optional per-candidate lead time charged *before*
                positioning (the SCSI overhead of a host-issued request).
                The lead delays the platter exactly as the service path
                does: the rotational wait is measured at
                ``(now + extra) + positioning``.

        Returns:
            ``costs[i]`` = ``extra_lead[i] + positioning + rotational
            wait`` for ``candidates[i]``, bit-for-bit what
            ``Disk._position_and_transfer`` then charges as locate time.
        """
        n = self.sectors_per_track
        rotation = self.rotation_time
        sector_time = self.sector_time
        tpc = self.tracks_per_cylinder
        seeks = self.seek_by_distance
        skews = self.skew_by_track
        switch = self.head_switch_time
        _ulp = ulp
        costs: List[float] = []
        append = costs.append
        # Two copies of the loop so the no-lead case (SATF under a VLD,
        # whose requests are drive-internal) pays no per-candidate branch
        # or indexing; SATF over raw disks takes the lead loop.  Both
        # inline rotational_slot -- see its docstring -- with the op order
        # kept identical.
        if extra_lead is None:
            for sector in candidates:
                track = sector // n
                sect = sector - track * n
                cylinder = track // tpc
                distance = cylinder - head_cyl
                if distance < 0:
                    distance = -distance
                positioning = seeks[distance]
                if track - cylinder * tpc != head_head and switch > positioning:
                    positioning = switch
                t = now + positioning
                rem = t % rotation
                if (rem <= 4.5e-308 or rem <= t * 1e-15) and (
                    rem <= 0.0 or rem <= 2.0 * _ulp(t)
                ):
                    slot = 0.0
                else:
                    slot = rem / rotation
                    if slot >= 1.0:
                        slot = 0.0
                    else:
                        slot *= n
                        nearest = (slot + _ROUND_MAGIC) - _ROUND_MAGIC
                        if nearest != slot and abs(
                            rem - nearest * sector_time
                        ) <= t * 2e-14:
                            slot = 0.0 if nearest == n else nearest
                angle = sect + skews[track]
                if angle >= n:
                    angle -= n
                append(positioning + ((angle - slot) % n) * sector_time)
            return costs
        for i, sector in enumerate(candidates):
            track = sector // n
            sect = sector - track * n
            cylinder = track // tpc
            distance = cylinder - head_cyl
            if distance < 0:
                distance = -distance
            positioning = seeks[distance]
            if track - cylinder * tpc != head_head and switch > positioning:
                positioning = switch
            extra = extra_lead[i]
            t = (now + extra) + positioning
            rem = t % rotation
            if (rem <= 4.5e-308 or rem <= t * 1e-15) and (
                rem <= 0.0 or rem <= 2.0 * _ulp(t)
            ):
                slot = 0.0
            else:
                slot = rem / rotation
                if slot >= 1.0:
                    slot = 0.0
                else:
                    slot *= n
                    nearest = (slot + _ROUND_MAGIC) - _ROUND_MAGIC
                    if nearest != slot and abs(
                        rem - nearest * sector_time
                    ) <= t * 2e-14:
                        slot = 0.0 if nearest == n else nearest
            angle = sect + skews[track]
            if angle >= n:
                angle -= n
            append((extra + positioning) + ((angle - slot) % n) * sector_time)
        return costs
