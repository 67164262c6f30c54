"""Queued request scheduling for the programmable disk.

The paper's eager-writing drive has its own processor; this package gives
the simulator the matching concurrency story: a request queue with
pluggable scheduling policies (FIFO, elevator/SCAN, and SATF priced by the
closed-form :class:`~repro.disk.mechanics.DiskMechanics` model) that keeps
up to ``queue_depth`` requests outstanding, and queue-emptiness as the
idle signal that triggers background work (scrubbing, compaction,
cleaning).

At ``queue_depth=1`` every request is serviced at submit time, so the
disk sees literally the same call sequence as the unscheduled code path
-- all existing figures are byte-identical by construction.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.sched.idle import IdleManager
    from repro.sched.policies import (
        POLICIES,
        ElevatorPolicy,
        FIFOPolicy,
        SATFPolicy,
        SchedulingPolicy,
        make_policy,
    )
    from repro.sched.scheduler import DiskRequest, DiskScheduler

__all__ = [
    "DiskRequest",
    "DiskScheduler",
    "ElevatorPolicy",
    "FIFOPolicy",
    "IdleManager",
    "POLICIES",
    "SATFPolicy",
    "SchedulingPolicy",
    "make_policy",
]

__getattr__, __dir__ = lazy_exports(__name__)
