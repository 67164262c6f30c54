"""Simulation plumbing: the simulated clock and latency accounting.

Everything in this reproduction runs against a :class:`~repro.sim.clock.SimClock`
instead of wall-clock time.  The paper's experimental platform made the Solaris
kernel sleep for the durations reported by the Dartmouth disk model; we keep
the same information content (service times, broken down by component) while
running deterministically and fast.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.sim.clock import SimClock
    from repro.sim.engine import (
        Event,
        EventEngine,
        IntervalRecorder,
        Process,
        Signal,
        Until,
    )
    from repro.sim.metrics import LatencyHistogram, OpCounters
    from repro.sim.stats import (
        COMPONENTS,
        Breakdown,
        LatencyRecorder,
    )

__all__ = [
    "SimClock",
    "COMPONENTS",
    "Breakdown",
    "LatencyRecorder",
    "LatencyHistogram",
    "OpCounters",
    "Event",
    "EventEngine",
    "IntervalRecorder",
    "Process",
    "Signal",
    "Until",
]

__getattr__, __dir__ = lazy_exports(__name__)
