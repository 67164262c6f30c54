"""Idle-time budget dispatch.

The seed plumbed idle time through per-filesystem ``idle()`` methods,
each hand-ordering its background work (VLD: scrubber then compactor;
LFS: cleaner then device; VLFS: compactor).  :class:`IdleManager`
factors that shared shape out: background *workers* register once, in
priority order, and every idle grant walks them -- budgeted and
accounted -- then advances the clock to the deadline.  A worker with
nothing to do says so itself: it checks its own condition first and
returns ``None``.

With the request scheduler in front of the disk, queue-emptiness is the
natural trigger: a device grants idle time only after draining its queue,
so background work never competes with outstanding foreground requests.
(The *amount* of idle time still comes from the host: the simulator's
clock only moves inside explicit operations, so a drive cannot discover
wall-clock idleness on its own -- a deliberate deviation noted in
DESIGN.md.)
"""

from __future__ import annotations

import math
from typing import Callable, List, Optional

from repro.sim.clock import SimClock
from repro.sim.stats import Breakdown


class IdleWorker:
    """One registered consumer of idle time."""

    __slots__ = ("name", "run", "needs_time")

    def __init__(
        self,
        name: str,
        run: Callable[[float], Optional[Breakdown]],
        needs_time: bool = True,
    ) -> None:
        self.name = name
        self.run = run
        #: Workers that only make progress against a positive budget are
        #: skipped once the deadline has passed; urgent bookkeeping (a
        #: device draining its request queue on any idle signal)
        #: registers with ``needs_time=False``.
        self.needs_time = needs_time


class IdleManager:
    """Dispatches idle-time budgets to registered workers, in order."""

    def __init__(self, clock: SimClock) -> None:
        self.clock = clock
        self.workers: List[IdleWorker] = []
        self.grants = 0
        self.granted_seconds = 0.0

    def register(
        self,
        name: str,
        run: Callable[[float], Optional[Breakdown]],
        needs_time: bool = True,
    ) -> IdleWorker:
        """Append a worker; earlier registrations run first.

        ``run`` receives the remaining budget in seconds and may return a
        :class:`Breakdown` to surface its media costs, or ``None`` when it
        had nothing to do.
        """
        worker = IdleWorker(name, run, needs_time)
        self.workers.append(worker)
        return worker

    def grant(self, seconds: float) -> Breakdown:
        """Hand ``seconds`` of idle time down the worker list, then
        advance the clock to the deadline regardless of how much of the
        budget the workers consumed."""
        if not 0.0 <= seconds < math.inf:
            raise ValueError(f"idle time must be finite and non-negative: {seconds!r}")
        clock = self.clock
        deadline = clock.now + seconds
        self.grants += 1
        self.granted_seconds += seconds
        total = Breakdown()
        for worker in self.workers:
            remaining = deadline - clock.now
            if worker.needs_time and remaining <= 0.0:
                continue
            result = worker.run(remaining)
            if result is not None:
                total.add(result)
        clock.advance_to(deadline)
        return total
