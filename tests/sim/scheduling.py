"""Callback scheduling on :class:`repro.sim.engine.EventEngine`, for tests.

The engine schedules what the stack runs -- processes and their
wake-ups -- as ``(time, seq, name, action, value)`` heap entries, each
fired as ``action(value)``.  Tests also put bare callbacks on the
timeline, cancel them, fire one entry at a time and count what is left.
These helpers do that with the same entry shape and the engine's own
loop, so a test drives exactly what the multi-host driver drives.
"""

from heapq import heapify, heappush

from repro.sim.engine import _bad_time


class Callback:
    """The handle :func:`at` / :func:`after` return."""

    __slots__ = ("engine", "time", "seq", "name", "cancelled")

    def __init__(self, engine, time, seq, name):
        self.engine = engine
        self.time = time
        self.seq = seq
        self.name = name
        self.cancelled = False

    def cancel(self):
        """Take the entry off the heap, so the callback is never
        counted, traced or allowed to move the clock (a no-op once it
        has fired)."""
        self.cancelled = True
        heap = self.engine._heap
        for index, entry in enumerate(heap):
            if entry[1] == self.seq:
                heap[index] = heap[-1]
                heap.pop()
                heapify(heap)
                return


def _call(action):
    action()


def at(engine, time, action, name="event"):
    """Schedule ``action()`` at absolute ``time`` (>= now)."""
    now = engine.clock.now
    if not time >= now:  # in the past, or NaN (which has no order)
        raise _bad_time(name, time, now)
    seq = engine._seq
    heappush(engine._heap, (time, seq, name, _call, action))
    engine._seq = seq + 1
    return Callback(engine, time, seq, name)


def after(engine, delay, action, name="event"):
    """Schedule ``action()`` ``delay`` seconds from now."""
    if not delay >= 0.0:  # negative, or NaN
        raise ValueError("delay must be non-negative")
    return at(engine, engine.clock.now + delay, action, name)


def step(engine):
    """Fire the next entry through :meth:`EventEngine.run` itself and
    return its ``(time, seq, name)``; ``None`` when nothing is pending.

    The slice ends at the entry's own time with a one-event backstop,
    which trips (and leaves the entry scheduled) when another one is
    due at that instant.
    """
    heap = engine._heap
    if not heap:
        return None
    time, seq, name = heap[0][:3]
    try:
        engine.run(until=time, max_events=1)
    except RuntimeError as exc:
        if not str(exc).startswith("engine exceeded 1 events"):
            raise
    return time, seq, name


def pending(engine):
    """Entries still to fire."""
    return len(engine._heap)
