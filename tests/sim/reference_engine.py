"""The event engine as it stood before its dispatch path was rewritten.

``Event``, ``Signal``, ``Resource``, ``Process`` and ``EventEngine``
below are the parent commit's classes, moved here verbatim: one
``Event`` object per heap entry, a ``lambda`` per wake-up, and a
``run()`` that calls ``step()`` once per event.  They are the oracle
``test_engine_differential.py`` holds ``repro.sim.engine`` to -- same
``(time, seq, name)`` trace, same clock, same counts -- so do not
optimise or tidy them.  ``Until`` and ``IntervalRecorder`` carry no
dispatch logic and are shared with the engine under test, which lets
one program text run on both.  ``Timer``, which the engine under test
no longer has, and this list-of-tuples ``EventTrace`` (the engine under
test stores its trace as columns) are kept here as they were; the
``SimClock.bind()`` call, which recorded an association nothing read,
is gone with the method.

Two behaviours here are *bugs the rewrite fixed* and the differential
programs avoid: a NaN time is accepted (and scrambles the heap order),
and ``run(max_events=N)`` raises on a program that fires exactly N
events.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

from repro.sim.clock import SimClock
from repro.sim.engine import IntervalRecorder, Until


class Timer:
    """A yieldable delay: ``yield Timer(dt)`` resumes the process after
    ``dt`` seconds of engine time (bare non-negative numbers work too)."""

    __slots__ = ("delay",)

    def __init__(self, delay: float) -> None:
        if not delay >= 0.0:  # negative, or NaN
            raise ValueError("timer delay must be non-negative")
        self.delay = delay


class Event:
    """One scheduled occurrence.

    Fires ``action`` at ``time``; :meth:`cancel` makes it a no-op without
    the cost of a heap delete (the heap entry stays and is skipped).
    """

    __slots__ = ("time", "seq", "name", "action", "cancelled")

    def __init__(
        self, time: float, seq: int, name: str, action: Callable[[], None]
    ) -> None:
        self.time = time
        self.seq = seq
        self.name = name
        self.action = action
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True

    def __repr__(self) -> str:
        state = " cancelled" if self.cancelled else ""
        return f"Event({self.name!r} @ {self.time:.9f}s #{self.seq}{state})"


class Signal:
    """A wait/signal primitive.

    Processes wait by yielding the signal; :meth:`fire` resumes every
    current waiter (in the order they started waiting -- deterministic)
    with the fired value.  A signal carries no memory: firing with no
    waiters is a no-op, so guard with state (``if not req.done: yield
    req.completed``) when the occurrence may precede the wait.
    """

    __slots__ = ("engine", "name", "_waiters", "fires")

    def __init__(self, engine: "EventEngine", name: str) -> None:
        self.engine = engine
        self.name = name
        self._waiters: List["Process"] = []
        self.fires = 0

    def _add_waiter(self, process: "Process") -> None:
        self._waiters.append(process)

    def fire(self, value: Any = None) -> int:
        """Wake every waiter (resumed via zero-delay events, so wake-ups
        interleave deterministically with everything else scheduled for
        this instant).  Returns the number of processes woken."""
        self.fires += 1
        waiters, self._waiters = self._waiters, []
        for process in waiters:
            self.engine.after(
                0.0,
                lambda p=process, v=value: p._resume(v),
                name=f"{self.name}->{process.name}",
            )
        return len(waiters)

    def __repr__(self) -> str:
        return f"Signal({self.name!r}, waiters={len(self._waiters)})"


class Resource:
    """A FIFO resource with ``capacity`` concurrent holders.

    ``grant = resource.request(); yield grant`` acquires (the grant
    signal fires when a slot frees up -- immediately, via a zero-delay
    event, if one is free now); :meth:`release` hands the slot to the
    oldest queued request.  Grant order is strictly first-come-first-
    served, so contention resolves deterministically.
    """

    __slots__ = ("engine", "name", "capacity", "in_use", "_queue")

    def __init__(
        self, engine: "EventEngine", capacity: int = 1, name: str = "resource"
    ) -> None:
        if capacity <= 0:
            raise ValueError("resource capacity must be positive")
        self.engine = engine
        self.name = name
        self.capacity = capacity
        self.in_use = 0
        self._queue: List[Signal] = []

    def request(self) -> Signal:
        grant = Signal(self.engine, f"{self.name}.grant")
        if self.in_use < self.capacity:
            self.in_use += 1
            # Fire on the next engine step: the requester has not yielded
            # the grant yet (it is still mid-turn), and zero-delay events
            # preserve request order.
            self.engine.after(0.0, grant.fire, name=f"{self.name}.acquire")
        else:
            self._queue.append(grant)
        return grant

    def release(self) -> None:
        if self.in_use <= 0:
            raise RuntimeError(f"release of idle resource {self.name!r}")
        if self._queue:
            grant = self._queue.pop(0)
            self.engine.after(0.0, grant.fire, name=f"{self.name}.acquire")
        else:
            self.in_use -= 1

    def __repr__(self) -> str:
        return (
            f"Resource({self.name!r}, {self.in_use}/{self.capacity} used, "
            f"{len(self._queue)} queued)"
        )


class Process:
    """A named generator adopted by the engine.

    The generator yields what it waits for -- a delay (number or
    :class:`Timer`), an absolute time (:class:`Until`), a
    :class:`Signal`, or ``None`` (yield the turn, resume at the same
    instant after pending same-time events).  When it
    returns, ``done`` flips and ``terminated`` fires with the return
    value (also stored in ``result``).
    """

    __slots__ = ("engine", "name", "_gen", "done", "result", "terminated")

    def __init__(
        self,
        engine: "EventEngine",
        gen: Generator[Any, Any, Any],
        name: str,
    ) -> None:
        self.engine = engine
        self.name = name
        self._gen = gen
        self.done = False
        self.result: Any = None
        self.terminated = Signal(engine, f"{name}.terminated")

    def _resume(self, value: Any = None) -> None:
        if self.done:
            return
        try:
            waited = self._gen.send(value)
        except StopIteration as stop:
            self.done = True
            self.result = stop.value
            self.terminated.fire(stop.value)
            return
        self._interpret(waited)

    def _interpret(self, waited: Any) -> None:
        if waited is None:
            self.engine.after(0.0, self._resume, name=f"{self.name}.turn")
        elif isinstance(waited, Timer):
            self.engine.after(
                waited.delay, self._resume, name=f"{self.name}.timer"
            )
        elif isinstance(waited, (int, float)):
            self.engine.after(
                float(waited), self._resume, name=f"{self.name}.timer"
            )
        elif isinstance(waited, Until):
            self.engine.at(
                max(waited.time, self.engine.now),
                self._resume,
                name=f"{self.name}.until",
            )
        elif isinstance(waited, Signal):
            waited._add_waiter(self)
        else:
            raise TypeError(
                f"process {self.name!r} yielded {waited!r}; expected a "
                "delay, Timer, Until, Signal, or None"
            )

    def __repr__(self) -> str:
        state = "done" if self.done else "running"
        return f"Process({self.name!r}, {state})"


class EventTrace:
    """The fired-event record the determinism tests diff.

    Each entry is ``(time, seq, name)`` -- seq included so that even
    same-instant reorderings (the hostile case) are visible.
    """

    __slots__ = ("records",)

    def __init__(self) -> None:
        self.records: List[Tuple[float, int, str]] = []

    def note(self, event: Event) -> None:
        self.records.append((event.time, event.seq, event.name))

    def as_tuples(self) -> List[Tuple[float, int, str]]:
        return list(self.records)

    def __len__(self) -> int:
        return len(self.records)


class EventEngine:
    """The heap-of-events core.

    Args:
        clock: The :class:`SimClock` serving as the view of engine time
            (a fresh one is created when omitted).  Firing an event
            advances it to the event's time; it never runs backwards.
        trace: Record every fired event into :attr:`trace` (the
            determinism-diff artifact).  Off by default -- tracing a
            long run costs memory.
    """

    def __init__(
        self, clock: Optional[SimClock] = None, trace: bool = False
    ) -> None:
        self.clock = clock if clock is not None else SimClock()
        self._heap: List[Tuple[float, int, Event]] = []
        self._seq = 0
        self.events_fired = 0
        self.trace: Optional[EventTrace] = EventTrace() if trace else None
        self.processes: Dict[str, Process] = {}
        #: Real busy/think/idle intervals, for exact overlap accounting.
        self.intervals = IntervalRecorder()

    # ------------------------------------------------------------------
    # Time and scheduling
    # ------------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current engine time (the clock is the view of this)."""
        return self.clock.now

    def at(
        self, time: float, action: Callable[[], None], name: str = "event"
    ) -> Event:
        """Schedule ``action`` at absolute ``time`` (>= now)."""
        if time < self.clock.now:
            raise ValueError(
                f"cannot schedule {name!r} at {time!r}, "
                f"before now ({self.clock.now!r})"
            )
        event = Event(time, self._seq, name, action)
        self._seq += 1
        heapq.heappush(self._heap, (event.time, event.seq, event))
        return event

    def after(
        self, delay: float, action: Callable[[], None], name: str = "event"
    ) -> Event:
        """Schedule ``action`` ``delay`` seconds from now."""
        if delay < 0.0:
            raise ValueError("delay must be non-negative")
        return self.at(self.clock.now + delay, action, name)

    def timer(self, delay: float) -> Timer:
        return Timer(delay)

    def signal(self, name: str = "signal") -> Signal:
        return Signal(self, name)

    def resource(self, capacity: int = 1, name: str = "resource") -> Resource:
        return Resource(self, capacity, name)

    # ------------------------------------------------------------------
    # Processes
    # ------------------------------------------------------------------

    def spawn(
        self, gen: Generator[Any, Any, Any], name: str = "process"
    ) -> Process:
        """Adopt a generator as a named process and give it its first
        turn via a zero-delay event (so spawn order *is* first-turn
        order, deterministically)."""
        process = Process(self, gen, name)
        self.processes[name] = process
        self.after(0.0, process._resume, name=f"{name}.start")
        return process

    # ------------------------------------------------------------------
    # The loop
    # ------------------------------------------------------------------

    @property
    def pending(self) -> int:
        """Events still scheduled (including cancelled placeholders)."""
        return len(self._heap)

    def step(self) -> Optional[Event]:
        """Fire the next non-cancelled event; ``None`` when idle."""
        while self._heap:
            _, _, event = heapq.heappop(self._heap)
            if event.cancelled:
                continue
            self.clock.advance_to(event.time)
            self.events_fired += 1
            if self.trace is not None:
                self.trace.note(event)
            event.action()
            return event
        return None

    def run(
        self, until: Optional[float] = None, max_events: int = 0
    ) -> int:
        """Fire events until the heap drains (or past ``until``, or
        ``max_events`` -- a runaway-loop backstop when positive).
        Returns the number of events fired."""
        fired = 0
        while self._heap:
            if until is not None and self._heap[0][0] > until:
                break
            if self.step() is None:
                break
            fired += 1
            if max_events and fired >= max_events:
                raise RuntimeError(
                    f"engine exceeded {max_events} events "
                    f"(t={self.clock.now:.6f}s) -- runaway process?"
                )
        if until is not None:
            self.clock.advance_to(until)
        return fired

    def __repr__(self) -> str:
        return (
            f"EventEngine(t={self.clock.now:.9f}s, pending={self.pending}, "
            f"fired={self.events_fired})"
        )
