"""The discrete-event simulation core.

:class:`EventEngine` overlaps N closed-loop hosts' think time with M
disks' service (:func:`repro.hosts.multihost.run_multihost`).  It is
what that driver runs, and no more:

* a heap of ``(time, seq, name, action, value)`` entries with
  **deterministic tie-breaking** (events scheduled for the same instant
  fire in scheduling order -- ``seq`` is a monotone counter and no two
  entries share one, so a run is a pure function of the schedule calls,
  never of heap internals or hash order, and the comparison never
  reaches ``name``).  The entry carries everything the loop needs to
  fire it: the loop calls ``action(value)`` -- a bound
  ``Process._resume`` and the value it is woken with;
* **named processes** (:class:`Process`) -- a generator adopted via
  :meth:`EventEngine.spawn` that yields what it waits for: a delay in
  seconds, an absolute time (:class:`Until`) or a :class:`Signal`; or a
  callback state machine started with :meth:`EventEngine.start` (the
  request path's disk process);
* an optional **event trace** (:class:`EventTrace`) -- the ``(time,
  seq, name)`` rows of fired events, stored as three columns -- which is
  what the determinism tests diff across runs and across ``--jobs 1`` vs
  ``--jobs N``;
* an :class:`IntervalRecorder` collecting the *real* think and service
  intervals of every process, which :func:`measure`,
  :func:`measure_within`, :func:`merge_intervals` and
  :func:`intersection_seconds` turn into host/disk/overlap time exactly.

Time relationship: the engine owns the timeline; its
:class:`~repro.sim.clock.SimClock` is the *view* of engine time that the
rest of the codebase reads (``clock.now``) -- firing an event advances
the view to the event's time.  Synchronous device code running inside a
process turn may still advance a *local* clock past the engine frontier
(a disk pricing a whole service closed-form); the process then wakes at
that absolute end, and the engine catches the global view up.  That
local-lookahead rule is what lets the closed-form mechanics engine
(`repro.disk`) run unmodified under the event core.

Host cost: firing an event is one dispatch.  :meth:`EventEngine.run` is
the loop itself (pop, advance the view, count, trace, call), the
wake-up a process schedules when it yields is one entry pushed from
``Process._resume`` with no object or closure of its own, and the
engine writes its clock's ``now`` attribute directly -- the engine owns
the timeline; everyone else only reads it.  ``tests/sim/reference_engine.py``
keeps a one-object-per-event engine as a differential oracle.
"""

from __future__ import annotations

from array import array
from heapq import heappop, heappush
from math import inf, isfinite
from typing import (
    Any,
    Callable,
    Dict,
    Generator,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
    Union,
)

from repro.sim.clock import SimClock


class Until:
    """A yieldable *absolute* resumption: ``yield Until(t)`` resumes the
    process exactly at engine time ``t`` (immediately if ``t`` is already
    past).  Unlike a delay, there is no ``now + (t - now)`` float
    round-trip -- the local-lookahead catch-up (a disk pricing a whole
    service closed-form, then handing the timeline back) uses this so
    engine time lands *bit-exactly* on the closed-form end, which the
    depth-1 identity tests rely on.  A NaN ``t`` is neither past nor
    future and is rejected when the process yields it.
    """

    __slots__ = ("time",)

    def __init__(self, time: float) -> None:
        self.time = time


def _bad_time(name: str, time: float, now: float) -> ValueError:
    return ValueError(
        f"cannot schedule {name!r} at {time!r}, before now ({now!r})"
    )


class Signal:
    """A wait/signal primitive, built as ``Signal(engine, name)``.

    Processes wait by yielding the signal; :meth:`fire` resumes every
    current waiter (in the order they started waiting -- deterministic)
    with the fired value.  A signal carries no memory: firing with no
    waiters is a no-op, so guard with state (``if not req.done: yield
    req.completed``) when the occurrence may precede the wait.
    """

    __slots__ = ("engine", "name", "_waiters")

    def __init__(self, engine: "EventEngine", name: str) -> None:
        self.engine = engine
        self.name = name
        self._waiters: List["Process"] = []

    def fire(self, value: Any = None) -> int:
        """Wake every waiter (resumed via zero-delay events, so wake-ups
        interleave deterministically with everything else scheduled for
        this instant).  Returns the number of processes woken."""
        waiters = self._waiters
        if not waiters:
            return 0
        self._waiters = []
        engine = self.engine
        heap = engine._heap
        now = engine.clock.now
        seq = engine._seq
        name = self.name
        for process in waiters:
            heappush(heap, (now, seq, f"{name}->{process.name}", process._resume, value))
            seq += 1
        engine._seq = seq
        return len(waiters)

    def __repr__(self) -> str:
        return f"Signal({self.name!r}, waiters={len(self._waiters)})"


class Process:
    """A named generator adopted by the engine.

    The generator yields what it waits for -- a non-negative delay in
    seconds (any real number: ``float``, ``int``, ``bool`` or a subclass
    of one), an absolute time (:class:`Until`) or a :class:`Signal`;
    anything else raises :class:`TypeError`.  When it returns, ``done``
    flips and ``terminated`` fires with the return value (also stored in
    ``result``).

    A subclass may be a *callback state machine* instead, built with
    ``gen=None`` and started with :meth:`EventEngine.start`: it
    overrides :meth:`_resume` with its whole turn and schedules its next
    one by pushing the entry a yield would have pushed, ``(time,
    engine._seq, name, action, value)`` onto ``engine._heap``
    (then ``engine._seq += 1``), or by waiting to be woken.  That is the
    request path's disk process
    (:class:`repro.sched.scheduler.DiskScheduler`): no generator frame,
    no yielded object and no type dispatch per turn.
    """

    __slots__ = (
        "engine",
        "name",
        "_gen",
        "done",
        "result",
        "terminated",
        "_timer_name",
        "_until_name",
    )

    def __init__(
        self,
        engine: "EventEngine",
        gen: Optional[Generator[Any, Any, Any]],
        name: str,
    ) -> None:
        self.engine = engine
        self.name = name
        self._gen = gen
        self.done = False
        self.result: Any = None
        self.terminated = Signal(engine, f"{name}.terminated")
        # The two wake-up names a long-lived process schedules once per
        # request, built once here.
        self._timer_name = f"{name}.timer"
        self._until_name = f"{name}.until"

    def _resume(self, value: Any = None) -> None:
        """One turn: send ``value`` in, then schedule the wake-up for
        whatever the generator yields next.

        The yield is dispatched by *exact* type -- ``float``,
        :class:`Signal`, :class:`Until`, what the hosts yield on every
        request -- and only a miss pays for one ``isinstance``, which
        takes any other real number as the ``float`` it is.
        """
        if self.done:
            return
        try:
            waited = self._gen.send(value)
        except StopIteration as stop:
            self.done = True
            self.result = stop.value
            self.terminated.fire(stop.value)
            return
        engine = self.engine
        now = engine.clock.now
        kind = type(waited)
        while True:
            if kind is float:
                if not waited >= 0.0:  # negative, or NaN
                    raise ValueError("delay must be non-negative")
                time = now + waited
                name = self._timer_name
            elif kind is Signal:
                waited._waiters.append(self)
                return
            elif kind is Until:
                time = waited.time
                name = self._until_name
                if not time >= now:
                    if time < now:
                        time = now  # already past: resume immediately
                    else:
                        raise _bad_time(name, time, now)
            elif isinstance(waited, (int, float)):
                # An int, a bool or a float subclass: once more as a float.
                kind = float
                waited = float(waited)
                continue
            else:
                raise TypeError(
                    f"process {self.name!r} yielded {waited!r}; expected a "
                    "delay, Until or Signal"
                )
            break
        heappush(engine._heap, (time, engine._seq, name, self._resume, None))
        engine._seq += 1

    def __repr__(self) -> str:
        state = "done" if self.done else "running"
        return f"Process({self.name!r}, {state})"


def merge_intervals(
    intervals: Iterable[Tuple[float, float]]
) -> List[Tuple[float, float]]:
    """Union of intervals as a sorted, disjoint list.  Overlapping or
    touching intervals coalesce, so the result depends only on the union
    -- merging already-merged lists gives the same list as merging their
    raw intervals."""
    merged: List[Tuple[float, float]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            if end > merged[-1][1]:
                merged[-1] = (merged[-1][0], end)
        else:
            merged.append((start, end))
    return merged


def intersection_seconds(
    a: List[Tuple[float, float]], b: List[Tuple[float, float]]
) -> float:
    """Total length of the intersection of two disjoint sorted lists."""
    total = 0.0
    i = j = 0
    while i < len(a) and j < len(b):
        lo = max(a[i][0], b[j][0])
        hi = min(a[i][1], b[j][1])
        if hi > lo:
            total += hi - lo
        if a[i][1] <= b[j][1]:
            i += 1
        else:
            j += 1
    return total


def measure(spans: Iterable[Tuple[float, float]]) -> float:
    """Total length of disjoint ``spans``, summed in their order."""
    return sum([end - start for start, end in spans])


def measure_within(
    spans: Iterable[Tuple[float, float]], window: Tuple[float, float]
) -> float:
    """Total length of disjoint ``spans`` clipped to ``window`` -- the
    "how busy was this shard during its slow window" question, answered
    by exact interval arithmetic.

    Boundary convention (pinned): spans and the window are both
    **half-open** ``[lo, hi)``.  A span that merely *abuts* a window
    edge -- ending exactly at ``lo``, or starting exactly at ``hi`` --
    shares a single point with it, has measure zero inside it, and
    contributes ``0.0``; the strict ``>`` clip below is what enforces
    that (``>=`` would admit those degenerate touches as zero-length
    terms, harmless for the sum but wrong as a "was it active in the
    window" predicate).  Consequently two windows that tile a span,
    ``(a, m)`` and ``(m, b)``, partition every span's measure exactly:
    nothing at ``m`` is double-counted and nothing is dropped.  An empty
    or inverted window has measure zero and returns ``0.0``.
    """
    lo, hi = window
    if hi <= lo:
        return 0.0
    return sum(
        [
            min(end, hi) - max(start, lo)
            for start, end in spans
            if min(end, hi) > max(start, lo)
        ]
    )


class IntervalRecorder:
    """Real event intervals, by kind and key.

    Processes note what they actually did and when -- ``("service",
    "disk0", start, end)``, ``("think", "host2", ...)`` -- and reports
    take each family's per-key unions (:meth:`merged_by_key`) and
    measure them with the module functions: total busy time is the
    :func:`measure` of a union, overlap the :func:`intersection_seconds`
    of two, a window's share :func:`measure_within`.
    """

    def __init__(self) -> None:
        #: kind -> key -> [(start, end), ...] in note order.  A key's
        #: list may be empty (:meth:`series` hands it out before the
        #: first interval); :meth:`keys` lists only keys with intervals.
        self._raw: Dict[str, Dict[str, List[Tuple[float, float]]]] = {}

    def note(self, kind: str, key: str, start: float, end: float) -> None:
        """Record one ``[start, end)`` interval.

        Zero-length intervals (``end == start``) are dropped here, by
        design: an instantaneous event has measure zero, so keeping it
        could never change a total but *would* force every consumer of
        :meth:`merged_by_key` to handle degenerate spans.  ``end <
        start`` is a caller bug and raises, and so is a NaN endpoint
        (the guard is ``not end >= start``, which NaN fails).
        """
        if not end >= start:
            raise ValueError(f"interval ends before it starts: {start}..{end}")
        if end == start:
            return
        self.series(kind, key).append((start, end))

    def series(self, kind: str, key: str) -> List[Tuple[float, float]]:
        """The list :meth:`note` appends ``kind``/``key`` intervals to.

        A process that notes once per request takes it once and appends
        ``(start, end)`` itself -- a note for the price of an append.
        Such a caller reads both ends off a monotone clock, so ``end >=
        start`` holds by construction, and it keeps :meth:`note`'s rule
        by appending only when ``end > start``.
        """
        try:
            return self._raw[kind][key]
        except KeyError:  # the first interval of this kind or key
            return self._raw.setdefault(kind, {}).setdefault(key, [])

    def keys(self, kind: str) -> List[str]:
        return sorted(
            key for key, spans in self._raw.get(kind, {}).items() if spans
        )

    def merged_by_key(self, kind: str) -> Dict[str, List[Tuple[float, float]]]:
        """``{key: union of key's intervals}`` in key order: each key's
        union, merged once, for a report that asks several questions of
        one family (the union of the whole family is
        :func:`merge_intervals` over the values)."""
        per_key = self._raw.get(kind, {})
        return {key: merge_intervals(per_key[key]) for key in self.keys(kind)}


class EventTrace:
    """The fired events' ``(time, seq, name)`` rows, stored as columns.

    A run appends each row's fields to three columns -- ``times`` an
    ``array("d")``, ``seqs`` an ``array("q")``, ``names`` a list -- and
    builds no row: a fired event costs 8 + 8 bytes and a name pointer,
    where a row tuple with its float and int cost about 120.  The trace
    reads back as the list of rows it replaces: iteration, ``len``,
    indexing and slicing give rows, it compares equal to a list of rows,
    and its ``repr`` is that list's.
    """

    __slots__ = ("times", "seqs", "names")

    def __init__(self) -> None:
        self.times = array("d")
        self.seqs = array("q")
        self.names: List[str] = []

    def __iter__(self) -> Iterator[Tuple[float, int, str]]:
        return zip(self.times, self.seqs, self.names)

    def __len__(self) -> int:
        return len(self.names)

    def __getitem__(self, index: Union[int, slice]) -> Any:
        if isinstance(index, slice):
            return list(zip(self.times[index], self.seqs[index], self.names[index]))
        return (self.times[index], self.seqs[index], self.names[index])

    def __eq__(self, other: object) -> bool:
        if isinstance(other, EventTrace):
            return (
                self.seqs == other.seqs
                and self.times == other.times
                and self.names == other.names
            )
        if isinstance(other, list):
            return list(self) == other
        return NotImplemented

    def __repr__(self) -> str:
        return repr(list(self))


class EventEngine:
    """The heap-of-events core.

    Args:
        clock: The :class:`SimClock` serving as the view of engine time
            (a fresh one is created when omitted).  Firing an event
            advances it to the event's time; it never runs backwards.
        trace: Record every fired event's ``(time, seq, name)`` into
            :attr:`trace`, an :class:`EventTrace` (the determinism-diff
            artifact).  Off by default -- a traced run keeps about 50
            bytes per fired event on the ledger's multi-host shape.
    """

    def __init__(
        self, clock: Optional[SimClock] = None, trace: bool = False
    ) -> None:
        self.clock = clock if clock is not None else SimClock()
        #: ``(time, seq, name, action, value)``, ordered by the first
        #: two; the loop calls ``action(value)``.
        self._heap: List[Tuple[float, int, str, Callable[[Any], Any], Any]] = []
        self._seq = 0
        #: Events fired so far; current *during* a run (an action reads
        #: a count that includes itself).
        self.events_fired = 0
        #: ``(time, seq, name)`` of every fired event, in firing order --
        #: seq included so that even same-instant reorderings (the
        #: hostile case) are visible -- or ``None`` when not tracing.
        self.trace: Optional[EventTrace] = EventTrace() if trace else None
        #: Real think/service intervals, for exact overlap accounting.
        self.intervals = IntervalRecorder()

    # ------------------------------------------------------------------
    # Time
    # ------------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current engine time (the clock is the view of this)."""
        return self.clock.now

    # ------------------------------------------------------------------
    # Processes
    # ------------------------------------------------------------------

    def spawn(
        self, gen: Generator[Any, Any, Any], name: str = "process"
    ) -> Process:
        """Adopt a generator as a named process and give it its first
        turn via a zero-delay event (so spawn order *is* first-turn
        order, deterministically)."""
        return self.start(Process(self, gen, name))

    def start(self, process: Process) -> Process:
        """Adopt a built process -- a generator's, or a callback state
        machine (see :class:`Process`) -- and give it its first turn
        via a zero-delay ``"<name>.start"`` event, after everything
        already scheduled for this instant."""
        heappush(
            self._heap,
            (self.clock.now, self._seq, f"{process.name}.start", process._resume, None),
        )
        self._seq += 1
        return process

    # ------------------------------------------------------------------
    # The loop
    # ------------------------------------------------------------------

    def run(
        self, until: Optional[float] = None, max_events: int = 0
    ) -> int:
        """Fire events until the heap drains (or past ``until``, or
        ``max_events`` -- a runaway-loop backstop when positive: firing
        exactly that many is fine, a further one coming due raises).
        Returns the number of events fired.

        ``until`` is ``None`` or a finite time; an infinite or NaN
        horizon raises :class:`ValueError` before anything fires (it
        would park the clock at infinity, or be ignored)."""
        if until is not None and not isfinite(until):
            raise ValueError(f"run horizon must be finite, got {until!r}")
        heap = self._heap
        clock = self.clock
        records = self.trace
        if records is not None:
            trace_time = records.times.append
            trace_seq = records.seqs.append
            trace_name = records.names.append
        horizon = inf if until is None else until
        limit = max_events if max_events > 0 else -1
        fired = 0
        while heap:
            entry = heappop(heap)
            time, seq, name, action, value = entry
            if time > horizon:
                heappush(heap, entry)  # not due in this slice
                break
            if fired == limit:
                heappush(heap, entry)  # due, and stays so
                raise RuntimeError(
                    f"engine exceeded {max_events} events "
                    f"(t={clock.now:.6f}s) -- runaway process?"
                )
            # The dispatch: advance the view, count, trace, call.
            if time > clock.now:
                clock.now = time
            fired += 1
            self.events_fired += 1
            if records is not None:
                trace_time(time)
                trace_seq(seq)
                trace_name(name)
            action(value)
        if until is not None:
            clock.advance_to(until)
        return fired

    def __repr__(self) -> str:
        return (
            f"EventEngine(t={self.clock.now:.9f}s, pending={len(self._heap)}, "
            f"fired={self.events_fired})"
        )
