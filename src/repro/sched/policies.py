"""Pluggable queue-ordering policies.

Each policy answers one question: of the requests currently pending,
which should the disk service next?  Policies never touch the clock or
the media -- they only *price* candidates, using the same closed-form
mechanics model the disk will charge when the chosen request is serviced.

* ``fifo`` -- submission order; the behaviour of the unscheduled seed
  code, and the ``queue_depth=1`` byte-identity baseline.
* ``scan`` -- the classic elevator: keep sweeping in one direction,
  service the nearest request at or ahead of the head, reverse when the
  direction is exhausted.
* ``satf`` -- shortest access time first: full positioning *plus*
  rotation, the policy a drive that knows its own rotational position can
  run (and the one eager writing's cost model already implements).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.disk.disk import Disk
    from repro.sched.scheduler import DiskRequest


class SchedulingPolicy:
    """Strategy interface: pick the next request to service."""

    name = "abstract"

    def pick(
        self, pending: Sequence["DiskRequest"], disk: "Disk"
    ) -> "DiskRequest":
        raise NotImplementedError


class FIFOPolicy(SchedulingPolicy):
    """Service in arrival order (the seed's implicit policy)."""

    name = "fifo"

    def pick(self, pending, disk):
        return pending[0]


class ElevatorPolicy(SchedulingPolicy):
    """SCAN: sweep the arm one way, reverse only when nothing lies ahead.

    Ties on the same cylinder break by arrival order, so equal-distance
    requests cannot reorder indefinitely.
    """

    name = "scan"

    def __init__(self) -> None:
        self.direction = 1

    def pick(self, pending, disk):
        here = disk.head_cylinder
        decompose = disk.geometry.decompose
        for direction in (self.direction, -self.direction):
            best = None
            for req in pending:
                delta = (decompose(req.sector)[0] - here) * direction
                if delta < 0:
                    continue
                key = (delta, req.seq)
                if best is None or key < best[0]:
                    best = (key, req)
            if best is not None:
                self.direction = direction
                return best[1]
        return pending[0]  # unreachable: some request always qualifies


class SATFPolicy(SchedulingPolicy):
    """Shortest access time first, priced by the mechanics model.

    The predicted cost mirrors ``Disk._position_and_transfer`` exactly:
    command overhead (when the request is host-issued), positioning as
    ``max(seek, head switch)``, then the rotational wait measured from
    the post-positioning instant *in service order* -- the clock advances
    by the SCSI overhead first, then by positioning, so the wait is
    priced at ``(now + scsi) + positioning``, not ``now + (scsi +
    positioning)`` (the two differ by an ulp often enough for the
    predicted cost to drift from the charged one).  Requests spanning
    several tracks are priced on their first track -- an estimate, but
    the error is the same for every candidate with the same first sector.

    The queue is priced in one ``DiskMechanics.price_candidates`` pass;
    ``tests/sched/test_satf_pricing.py`` pins each price against what the
    disk then charges.
    """

    name = "satf"

    def pick(self, pending, disk):
        if len(pending) == 1:
            return pending[0]
        scsi = disk.spec.scsi_overhead
        sectors = []
        leads = None
        for i, req in enumerate(pending):
            sectors.append(req.sector)
            if req.charge_scsi:
                if leads is None:
                    leads = [0.0] * len(pending)
                leads[i] = scsi
        costs = disk.mechanics.price_candidates(
            disk.clock.now,
            disk.head_cylinder,
            disk.head_head,
            sectors,
            extra_lead=leads,
        )
        cheapest = min(costs)
        first = costs.index(cheapest)
        if cheapest not in costs[first + 1:]:
            return pending[first]
        # Cost tie: resolve by submission order (lowest seq), exactly as
        # a (cost, seq) scan would.
        best = None
        for req, cost in zip(pending, costs):
            if cost == cheapest and (best is None or req.seq < best.seq):
                best = req
        return best


POLICIES = {
    "fifo": FIFOPolicy,
    "scan": ElevatorPolicy,
    "satf": SATFPolicy,
}


def make_policy(name: str) -> SchedulingPolicy:
    """A fresh policy instance by name (policies may carry sweep state)."""
    try:
        return POLICIES[name]()
    except KeyError:
        raise ValueError(
            f"unknown scheduling policy {name!r}; "
            f"known: {', '.join(sorted(POLICIES))}"
        ) from None
