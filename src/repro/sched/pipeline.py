"""The overlapped host/disk pipeline.

A closed-loop host alternates between *thinking* (preparing the next
request) and *submitting*.  Without a queue, think time and disk time
serialize; with one, the host thinks while the disk drains its backlog.
:class:`HostPipeline` models that overlap on the simulator's single
clock with the classic pipeline approximation ``max(think, service)``:

* queue empty -- the disk is idle, so host think time is the critical
  path and advances the clock;
* requests outstanding -- the disk is busy for at least one full service
  (atomic in the closed-form engine, and in the sweep's regime much
  longer than a think interval), so the think happens *during* time the
  services already put on the clock and is hidden.

Submission never blocks until the queue reaches ``queue_depth``; at that
point the next submit services one request first -- the host waiting on a
completion.  At ``queue_depth=1`` every submit services synchronously and
the seed's serialized timing is reproduced exactly.  The approximation
overstates overlap when think intervals exceed service times
(``think_hidden_seconds`` reports how much think time was hidden, so a
caller can bound the error).  The multi-host driver
(:mod:`repro.hosts.multihost`) removes the approximation: its hosts are
event-engine processes whose think time is a real timer and whose waits
are real completion events, so overlap is measured from the recorded
think/service intervals instead of inferred.
"""

from __future__ import annotations

from typing import Optional

from repro.sched.scheduler import DiskRequest, DiskScheduler
from repro.sim.stats import Breakdown


class HostPipeline:
    """Drives a :class:`DiskScheduler` with host think time overlapped
    against queued request service.

    Args:
        scheduler: The request queue to drive.
        think_seconds: Host compute time preceding each submission.
    """

    def __init__(
        self, scheduler: DiskScheduler, think_seconds: float = 0.0
    ) -> None:
        if not think_seconds >= 0.0:
            raise ValueError("think time must be non-negative")
        self.scheduler = scheduler
        self.think_seconds = think_seconds
        self.submitted = 0
        #: Think time that overlapped disk service instead of advancing
        #: the clock.
        self.think_hidden_seconds = 0.0

    def _think(self) -> None:
        if self.think_seconds <= 0.0:
            return
        if self.scheduler.outstanding:
            # The disk is mid-backlog: the host's preparation of the next
            # request hides behind service time already on the clock.
            self.think_hidden_seconds += self.think_seconds
            return
        self.scheduler.disk.clock.advance(self.think_seconds)

    def write(
        self,
        sector: int,
        count: int = 1,
        data: Optional[bytes] = None,
        charge_scsi: bool = True,
    ) -> DiskRequest:
        self._think()
        self.submitted += 1
        return self.scheduler.write(sector, count, data, charge_scsi)

    def finish(self) -> Breakdown:
        """Drain the queue (end of the run: the host stops submitting)."""
        return self.scheduler.drain()
