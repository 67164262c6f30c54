"""Oracle for the queued-workload driver's think step.

:class:`HostPipeline` is the class that once drove
:func:`repro.harness.runner.simulate_queued_workload`'s host: think
before each submission, on the clock when the queue is empty, hidden
behind queued service when it is not.  The driver now does that step
inline; :func:`reference_simulate_queued_workload` is the driver as it
ran through this class, kept verbatim so that
``test_pipeline_differential.py`` can hold the two to ``==``.
"""

from __future__ import annotations

import random
from typing import Dict, Optional

from repro.disk.disk import Disk
from repro.disk.specs import DiskSpec
from repro.harness.runner import QUEUE_WORKLOADS, REQUEST_SECTORS
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


def reference_simulate_queued_workload(
    spec: DiskSpec,
    queue_depth: int = 1,
    policy: str = "fifo",
    workload: str = "random-update",
    requests: int = 400,
    think_seconds: float = 0.0002,
    seed: int = 3,
) -> Dict[str, float]:
    """The queued-workload driver as it ran through :class:`HostPipeline`."""
    if workload not in QUEUE_WORKLOADS:
        raise ValueError(
            f"unknown workload {workload!r}; known: "
            + ", ".join(QUEUE_WORKLOADS)
        )
    if requests <= 0:
        raise ValueError("request count must be positive")
    rng = random.Random(seed)
    disk = Disk(spec, store_data=False)
    scheduler = DiskScheduler(disk, policy=policy, queue_depth=queue_depth)
    pipeline = HostPipeline(scheduler, think_seconds=think_seconds)
    aligned = disk.geometry.total_sectors // REQUEST_SECTORS
    cursor = rng.randrange(aligned)
    start = disk.clock.now
    for i in range(requests):
        if workload == "random-update":
            lba = rng.randrange(aligned)
        elif workload == "sequential":
            lba = (cursor + i) % aligned
        else:  # mixed
            if i % 2:
                lba = rng.randrange(aligned)
            else:
                cursor = (cursor + 1) % aligned
                lba = cursor
        pipeline.write(lba * REQUEST_SECTORS, REQUEST_SECTORS)
    pipeline.finish()
    elapsed = disk.clock.now - start
    service = scheduler.service_times.percentiles()
    response = scheduler.response_times
    response_pct = response.percentiles()
    return {
        "elapsed_seconds": elapsed,
        "mean_service_ms": scheduler.busy_seconds / scheduler.serviced * 1e3,
        "p50_service_ms": service["p50"] * 1e3,
        "p95_service_ms": service["p95"] * 1e3,
        "p99_service_ms": service["p99"] * 1e3,
        "p999_service_ms": service["p999"] * 1e3,
        "mean_response_ms": (
            response.sum / response.count * 1e3 if response.count else 0.0
        ),
        "p99_response_ms": response_pct["p99"] * 1e3,
        "p999_response_ms": response_pct["p999"] * 1e3,
        "requests_per_second": requests / elapsed if elapsed > 0 else 0.0,
        "max_outstanding": float(scheduler.max_outstanding),
    }
