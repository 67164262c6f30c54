"""Batched mechanics pricing over candidate runs (the hot-path engine).

Eager writing's core move is pricing *every* free sector near the head and
picking the cheapest, so the simulator's whole-run throughput is bounded by
how fast ``positioning + rotational wait (+ transfer)`` can be evaluated
for a set of candidates: the eager allocator's free-run sweep, SATF's
pick-next over the pending queue, and the compactor's hole search all ask
the same question N times per decision.  :class:`DiskMechanics` answers it
one candidate at a time through a stack of method calls (seek curve with a
``sqrt``, per-call skew derivation, per-call validation); at tens of
thousands of decisions per simulated second that stack *is* the profile.

:class:`BatchMechanics` precomputes the geometry- and spec-derived pieces
as flat integer/float tables -- the seek curve by cylinder distance, the
angular skew of every track -- and evaluates whole candidate sets in one
pass of a tight loop over those tables.  Every float operation is kept in
the same order as the scalar path, so costs are **bit-for-bit identical**
to composing :class:`DiskMechanics` calls; the scalar path stays as the
oracle (``tests/disk/test_batch_mechanics.py`` pins the two against each
other across random skewed geometries, exactly as
``ReferenceFreeSpaceMap`` pins the bitmap free map).

The rotational term reproduces :meth:`DiskMechanics.rotational_slot`
including its float-boundary normalization: times within a couple of
ulps of a rotation boundary read as slot 0, never as "a hair past it".
"""

from __future__ import annotations

from math import ulp
from typing import List, Optional, Sequence, Tuple

from repro.disk.geometry import DiskGeometry
from repro.disk.specs import DiskSpec

#: ``(x + _ROUND_MAGIC) - _ROUND_MAGIC`` is round-half-to-even for
#: ``0 <= x < 2**51`` (the sum lands where doubles have ulp 1, and the
#: magic constant is even, so IEEE ties-to-even resolves ties exactly
#: like :func:`round`): two float adds in place of a builtin call, in
#: loops where the call itself is the cost.  Slot values are bounded by
#: sectors-per-track, nowhere near 2**51.
_ROUND_MAGIC = 6755399441055744.0  # 2**52 + 2**51


class BatchMechanics:
    """Table-driven batch pricing for one (spec, geometry) pair.

    The tables are burned in at construction (geometry is immutable):

    * ``seek_by_distance[d]`` -- ``spec.seek_time(d)`` for every cylinder
      distance the geometry can produce;
    * ``skew_by_track[cylinder * tracks_per_cylinder + head]`` -- the
      angular offset of sector 0 on every track.
    """

    def __init__(self, spec: DiskSpec, geometry: DiskGeometry) -> None:
        if geometry.spec is not spec and geometry.spec != spec:
            raise ValueError("geometry was built from a different spec")
        self.spec = spec
        self.geometry = geometry
        self.rotation_time = spec.rotation_time
        self.sector_time = spec.sector_time
        self.sectors_per_track = geometry.sectors_per_track
        self.sectors_per_cylinder = geometry.sectors_per_cylinder
        self.tracks_per_cylinder = geometry.tracks_per_cylinder
        self.head_switch_time = spec.head_switch_time
        #: Clock bound for the snap's cheap proximity pre-gate (see
        #: :meth:`DiskMechanics.rotational_slot`): below it, the snap
        #: tolerance is under 0.125 slots, so ``slot % 1.0`` inside
        #: ``[0.125, 0.875]`` provably cannot snap.
        self._snap_coarse = spec.sector_time * 1e12
        self.seek_by_distance: List[float] = [
            spec.seek_time(d) for d in range(geometry.num_cylinders)
        ]
        tpc = geometry.tracks_per_cylinder
        self.skew_by_track: List[int] = [
            geometry.skew_offset(idx // tpc, idx % tpc)
            for idx in range(geometry.num_cylinders * tpc)
        ]

    # ------------------------------------------------------------------
    # Scalar table-backed primitives (bit-equal to DiskMechanics)
    # ------------------------------------------------------------------

    def positioning_time(
        self,
        from_cylinder: int,
        from_head: int,
        to_cylinder: int,
        to_head: int,
    ) -> float:
        """``max(seek, head switch)``, answered from the seek table."""
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

    def rotational_slot(self, now: float) -> float:
        """Platter angle at ``now`` -- same result as the (boundary-fixed)
        :meth:`DiskMechanics.rotational_slot`, without revalidating."""
        rotation = self.rotation_time
        rem = now % rotation
        n = self.sectors_per_track
        if rem > 4.5e-308 and rem > now * 1e-15:
            # Conservatively past the zero-boundary snap (2 * ulp(now)
            # never exceeds now * 2**-51): the ordinary path, sans ulp().
            frac = rem / rotation
            if frac >= 1.0:
                return 0.0
            slot = frac * n
            m = slot % 1.0
            if m < 0.125 or m > 0.875 or now > self._snap_coarse:
                nearest = round(slot)
                if nearest != slot and abs(rem - nearest * self.sector_time) <= now * 2e-14:
                    return 0.0 if nearest == n else float(nearest)
            return slot
        if rem <= 0.0 or rem <= 2.0 * ulp(now):
            return 0.0
        frac = rem / rotation
        if frac >= 1.0:
            return 0.0
        slot = frac * n
        nearest = (slot + _ROUND_MAGIC) - _ROUND_MAGIC
        d = slot - nearest
        if -0.125 < d < 0.125 or now > self._snap_coarse:
            if nearest != slot and abs(rem - nearest * self.sector_time) <= now * 2e-14:
                return 0.0 if nearest == n else nearest
        return slot

    def position_and_arrival(
        self,
        now: float,
        head_cyl: int,
        head_head: int,
        cylinder: int,
        head: int,
    ) -> Tuple[float, float]:
        """``(positioning_time, arrival_slot)`` for moving the arm to one
        track: the fused form of ``mechanics.positioning_time`` +
        ``disk.slot_after(positioning)`` the allocator's track queries
        pay per candidate track."""
        positioning = self.positioning_time(head_cyl, head_head, cylinder, head)
        return positioning, self.rotational_slot(now + positioning)

    # ------------------------------------------------------------------
    # Batch pricing
    # ------------------------------------------------------------------

    def price_candidates(
        self,
        now: float,
        head_cyl: int,
        head_head: int,
        candidates: Sequence[int],
        extra_lead: Optional[Sequence[float]] = None,
        transfer_sectors: int = 0,
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
            transfer_sectors: When nonzero, add the media transfer time
                for that many sectors to every cost.

        Returns:
            ``costs[i]`` = ``extra_lead[i] + positioning + rotational
            wait (+ transfer)`` for ``candidates[i]``, bit-for-bit equal
            to composing the scalar mechanics calls in service order.
        """
        n = self.sectors_per_track
        rotation = self.rotation_time
        sector_time = self.sector_time
        tpc = self.tracks_per_cylinder
        seeks = self.seek_by_distance
        skews = self.skew_by_track
        switch = self.head_switch_time
        transfer = transfer_sectors * sector_time if transfer_sectors else 0.0
        _ulp = ulp
        coarse = self._snap_coarse
        costs: List[float] = []
        append = costs.append
        # Two copies of the loop body so the common no-lead case pays no
        # per-candidate branch or indexing; both inline rotational_slot
        # (the call itself is measurable at this call rate) with the op
        # order kept identical.  ``rem > t * 1e-15`` conservatively
        # clears the boundary snap without the ulp() call: for normal t
        # (guaranteed by ``rem > 4.5e-308``, since t >= rem), 2 * ulp(t)
        # never exceeds t * 2**-51 < t * 1e-15, so any larger remainder
        # takes the ordinary path with bit-identical results.  Subnormal
        # times (where ulp stops scaling with t) fall through to the
        # exact form.  The interior-boundary snap sits behind the same
        # proximity pre-gate as DiskMechanics.rotational_slot -- below
        # ``coarse`` the snap tolerance cannot reach 0.125 slots, so a
        # slot further than that from an integer provably cannot snap --
        # with the nearest integer found by the _ROUND_MAGIC add/sub
        # pair instead of a round() call.  Most candidates skip the
        # exact ulp-scale test entirely, bit-identically.
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
                if rem > 4.5e-308 and rem > t * 1e-15:
                    frac = rem / rotation
                    if frac >= 1.0:
                        slot = 0.0
                    else:
                        slot = frac * n
                        nearest = (slot + _ROUND_MAGIC) - _ROUND_MAGIC
                        d = slot - nearest
                        if -0.125 < d < 0.125 or t > coarse:
                            if nearest != slot and abs(
                                rem - nearest * sector_time
                            ) <= t * 2e-14:
                                slot = 0.0 if nearest == n else nearest
                elif rem <= 0.0 or rem <= 2.0 * _ulp(t):
                    slot = 0.0
                else:
                    frac = rem / rotation
                    if frac >= 1.0:
                        slot = 0.0
                    else:
                        slot = frac * n
                        nearest = (slot + _ROUND_MAGIC) - _ROUND_MAGIC
                        d = slot - nearest
                        if -0.125 < d < 0.125 or t > coarse:
                            if nearest != slot and abs(
                                rem - nearest * sector_time
                            ) <= t * 2e-14:
                                slot = 0.0 if nearest == n else nearest
                angle = sect + skews[track]
                if angle >= n:
                    angle -= n
                cost = positioning + ((angle - slot) % n) * sector_time
                if transfer:
                    cost += transfer
                append(cost)
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
            lead = extra + positioning
            t = (now + extra) + positioning
            rem = t % rotation
            if rem > 4.5e-308 and rem > t * 1e-15:
                frac = rem / rotation
                if frac >= 1.0:
                    slot = 0.0
                else:
                    slot = frac * n
                    nearest = round(slot)
                    if nearest != slot and abs(
                        rem - nearest * sector_time
                    ) <= t * 2e-14:
                        slot = 0.0 if nearest == n else float(nearest)
            elif rem <= 0.0 or rem <= 2.0 * _ulp(t):
                slot = 0.0
            else:
                frac = rem / rotation
                if frac >= 1.0:
                    slot = 0.0
                else:
                    slot = frac * n
                    nearest = round(slot)
                    if nearest != slot and abs(
                        rem - nearest * sector_time
                    ) <= t * 2e-14:
                        slot = 0.0 if nearest == n else float(nearest)
            angle = sect + skews[track]
            if angle >= n:
                angle -= n
            cost = lead + ((angle - slot) % n) * sector_time
            if transfer:
                cost += transfer
            append(cost)
        return costs
