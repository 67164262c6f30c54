"""A simulated clock measured in seconds.

The clock only moves forward.  Disk mechanics, SCSI command processing, and
host CPU overheads all advance it; experiment harnesses read elapsed simulated
time to report latencies and bandwidths exactly the way the paper's modified
Solaris kernel reported wall-clock time.

A clock plays one of two roles:

* **View over engine time.**  The clock an
  :class:`~repro.sim.engine.EventEngine` is given (or creates) is how
  the rest of the codebase reads the engine's timeline: firing an event
  advances it to the event's time.
* **Local frontier.**  Any other clock -- e.g. a
  :class:`~repro.disk.disk.Disk`'s own clock under the multi-host driver
  -- marks when that component is next free.  Synchronous mechanics code
  advances it closed-form past the engine's global view ("local
  lookahead"); the owning process then wakes at that absolute time so
  the engine catches up.  Either way the mechanics code is unchanged:
  rotational position stays a pure function of ``clock.now``.

``now`` is a plain attribute, read several times per simulated request.
Its writers are :meth:`SimClock.advance`, :meth:`SimClock.advance_to`
and the engine that owns the clock -- that is what keeps it monotone,
and CI fails on an assignment to ``.now`` anywhere else in ``src/``.
"""

from __future__ import annotations


class SimClock:
    """Monotonically increasing simulated time, in seconds."""

    def __init__(self, start: float = 0.0) -> None:
        if start < 0.0:
            raise ValueError("clock cannot start before time zero")
        #: Current simulated time in seconds.  Read it freely; only
        #: :meth:`advance`, :meth:`advance_to` and the owning engine
        #: write it.
        self.now = float(start)

    def advance(self, seconds: float) -> float:
        """Move time forward by ``seconds`` and return the new time.

        Negative advances are rejected: simulated time never flows backwards.
        """
        if not seconds >= 0.0:
            raise ValueError(f"cannot advance clock by {seconds!r} seconds")
        self.now += seconds
        return self.now

    def advance_to(self, deadline: float) -> float:
        """Advance to an absolute ``deadline`` (no-op if already past it)."""
        if deadline > self.now:
            self.now = deadline
        return self.now

    def __repr__(self) -> str:
        return f"SimClock(now={self.now:.9f})"
