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
* **event names as codes** (:class:`EventNames`) -- ``name`` is an
  ``int`` into the engine's one name table, a fixed name interned where
  it is built or a numbered family plus its number, so scheduling an
  event formats no string; the string is built when a trace row is
  read;
* **named processes** (:class:`Process`) -- a generator adopted via
  :meth:`EventEngine.spawn` that yields what it waits for: a delay in
  seconds, an absolute time (:class:`Until`) or a :class:`Signal`; or a
  callback state machine started with :meth:`EventEngine.start` (the
  request path's disk process);
* an optional **event trace** (:class:`EventTrace`) -- the ``(time,
  seq, name)`` rows of fired events, stored as three number columns
  against the name table -- which is what the determinism tests diff
  across runs and across ``--jobs 1`` vs ``--jobs N``;
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
the timeline; everyone else only reads it.  A traced event keeps its
numbers and no string: an 8-byte time, a 4-byte seq and an 8-byte name
code, 21.5 bytes per fired event on the ledger's multi-host shape with
the arrays' growth.  ``tests/sim/reference_engine.py`` keeps a
one-object-per-event engine as a differential oracle.
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


#: An event name's code: the low bits index its entry in the engine's
#: :class:`EventNames`; a numbered family's name carries its number
#: above them, so ``family + (number << NUMBER_SHIFT)`` is that name.
NUMBER_SHIFT = 24
_INDEX_MASK = (1 << NUMBER_SHIFT) - 1


class EventNames:
    """One engine's event names, each an ``int`` code into one table.

    An entry is a fixed name (``"host2.timer"``), interned once where it
    is built, or a numbered family -- a prefix and a suffix, whose name
    for number ``K`` is ``f"{prefix}{K}{suffix}"`` and whose code is the
    family's plus ``K << NUMBER_SHIFT`` (``"shard0.req{K}.completed"``,
    one entry for every request of a disk).  A signal's wake-up of a
    process, ``"<signal>-><process>"``, is one more entry per pair,
    carrying the signal's number.  So scheduling an event formats no
    string, traced or not: :meth:`name` builds the string when a trace
    row is read.  The table keys nothing by process object, so a trace
    that keeps it keeps no process alive.
    """

    __slots__ = ("_prefixes", "_suffixes", "_codes", "_arrows")

    def __init__(self) -> None:
        #: Entry ``i`` is ``_prefixes[i]`` when ``_suffixes[i]`` is
        #: ``None``, else the family ``_prefixes[i]{K}_suffixes[i]``.
        self._prefixes: List[str] = []
        self._suffixes: List[Optional[str]] = []
        self._codes: Dict[Tuple[str, Optional[str]], int] = {}
        #: ``(signal entry, process name)`` -> the entry of its wake-up.
        self._arrows: Dict[Tuple[int, str], int] = {}

    def _entry(self, prefix: str, suffix: Optional[str]) -> int:
        code = self._codes.get((prefix, suffix))
        if code is None:
            code = len(self._prefixes)
            if code > _INDEX_MASK:
                raise OverflowError("event name table is full")
            self._codes[(prefix, suffix)] = code
            self._prefixes.append(prefix)
            self._suffixes.append(suffix)
        return code

    def intern(self, name: str) -> int:
        """The code of the fixed name ``name``."""
        return self._entry(name, None)

    def family(self, prefix: str, suffix: str) -> int:
        """The code of the numbered family ``prefix{K}suffix`` at
        ``K = 0``; name ``K`` is this plus ``K << NUMBER_SHIFT``."""
        return self._entry(prefix, suffix)

    def _arrow(self, index: int, process: str) -> int:
        """The entry of ``"<entry index>-><process>"``, the wake-up a
        fire of a signal with that entry pushes for ``process``."""
        # Built once per pair, then found in _arrows by Signal.fire.
        prefix, suffix = self._prefixes[index], self._suffixes[index]
        if suffix is None:
            arrow = self._entry(prefix + "->" + process, None)
        else:
            arrow = self._entry(prefix, suffix + "->" + process)
        self._arrows[(index, process)] = arrow
        return arrow

    def name(self, code: int) -> str:
        """The name ``code`` stands for."""
        index = code & _INDEX_MASK
        suffix = self._suffixes[index]
        if suffix is None:
            return self._prefixes[index]
        return f"{self._prefixes[index]}{code >> NUMBER_SHIFT}{suffix}"


class Signal:
    """A wait/signal primitive, built as ``Signal(engine, name)``.

    Processes wait by yielding the signal; :meth:`fire` resumes every
    current waiter (in the order they started waiting -- deterministic)
    with the fired value.  A signal carries no memory: firing with no
    waiters is a no-op, so guard with state (``if not req.done: yield
    req.completed``) when the occurrence may precede the wait.

    ``name`` is a ``str``, interned into the engine's
    :class:`EventNames`, or a code from that table already -- a
    numbered family's, as a disk's per-request completion signal is, so
    that building one formats no string.
    """

    __slots__ = ("engine", "code", "_waiters")

    def __init__(self, engine: "EventEngine", name: Union[str, int]) -> None:
        self.engine = engine
        self.code = name if type(name) is int else engine.names.intern(name)
        self._waiters: List["Process"] = []

    @property
    def name(self) -> str:
        return self.engine.names.name(self.code)

    def fire(self, value: Any = None) -> int:
        """Wake every waiter (resumed via zero-delay events, so wake-ups
        interleave deterministically with everything else scheduled for
        this instant).  Returns the number of processes woken.  Each
        wake-up is named ``"<signal>-><process>"``: the table's entry for
        that pair, carrying the signal's number."""
        waiters = self._waiters
        if not waiters:
            return 0
        self._waiters = []
        engine = self.engine
        heap = engine._heap
        now = engine.clock.now
        seq = engine._seq
        code = self.code
        index = code & _INDEX_MASK
        number = code - index
        arrows = engine.names._arrows
        for process in waiters:
            arrow = arrows.get((index, process.name))
            if arrow is None:
                arrow = engine.names._arrow(index, process.name)
            heappush(heap, (now, seq, number + arrow, process._resume, value))
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
    engine._seq, code, action, value)`` onto ``engine._heap``, with
    ``code`` a name it interned in ``engine.names`` when it was built
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
        "_timer_code",
        "_until_code",
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
        # request, interned once here.
        self._timer_code = engine.names.intern(f"{name}.timer")
        self._until_code = engine.names.intern(f"{name}.until")

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
                code = self._timer_code
            elif kind is Signal:
                waited._waiters.append(self)
                return
            elif kind is Until:
                time = waited.time
                code = self._until_code
                if not time >= now:
                    if time < now:
                        time = now  # already past: resume immediately
                    else:
                        raise _bad_time(engine.names.name(code), time, now)
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
        heappush(engine._heap, (time, engine._seq, code, self._resume, None))
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

    Processes record what they actually did and when -- ``("service",
    "disk0", start, end)``, ``("think", "host2", ...)`` -- and reports
    take each family's per-key unions (:meth:`merged_by_key`) and
    measure them with the module functions: total busy time is the
    :func:`measure` of a union, overlap the :func:`intersection_seconds`
    of two, a window's share :func:`measure_within`.
    """

    def __init__(self) -> None:
        #: kind -> key -> [(start, end), ...] in append order.  A key's
        #: list may be empty (:meth:`series` hands it out before the
        #: first interval); :meth:`keys` lists only keys with intervals.
        self._raw: Dict[str, Dict[str, List[Tuple[float, float]]]] = {}

    def series(self, kind: str, key: str) -> List[Tuple[float, float]]:
        """The list of ``kind``/``key`` intervals, to append ``(start,
        end)`` to.

        A process that records once per request takes it once and
        appends to it itself.  Such a caller reads both ends off a
        monotone clock and appends only when ``end > start``: an
        instantaneous event has measure zero, so keeping it could never
        change a total but *would* hand every consumer of
        :meth:`merged_by_key` a degenerate span.
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

    A run appends each row's numbers to three columns -- ``times`` an
    ``array("d")``, ``seqs`` 4-byte unsigned (widened once to
    ``array("q")`` if a seq passes 2**32 - 1) and ``codes`` an
    ``array("q")`` of name codes into the engine's :class:`EventNames`,
    ``table`` -- and builds no row and no name: a fired event costs 20
    bytes, where a row tuple with its float and int cost about 120.  The
    trace reads back as the list of rows it replaces: iteration gives
    rows (``list(trace)`` is that list), each name built from its code
    there, ``len`` counts them, it compares equal to a list of rows from
    either side and to another trace by rows, and its ``repr`` is that
    list's.
    """

    __slots__ = ("times", "seqs", "codes", "table")

    def __init__(self, table: EventNames) -> None:
        self.times = array("d")
        self.seqs = array("I")
        self.codes = array("q")
        self.table = table

    def _widen_seqs(self) -> Callable[[int], None]:
        """Give ``seqs`` 8 bytes an entry; return its ``append``."""
        self.seqs = array("q", self.seqs)
        return self.seqs.append

    def __iter__(self) -> Iterator[Tuple[float, int, str]]:
        return zip(self.times, self.seqs, map(self.table.name, self.codes))

    def __len__(self) -> int:
        return len(self.codes)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, EventTrace):
            return (
                self.seqs == other.seqs
                and self.times == other.times
                and list(map(self.table.name, self.codes))
                == list(map(other.table.name, other.codes))
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
            artifact).  Off by default -- a traced run keeps about 21.5
            bytes per fired event on the ledger's multi-host shape.
    """

    def __init__(
        self, clock: Optional[SimClock] = None, trace: bool = False
    ) -> None:
        self.clock = clock if clock is not None else SimClock()
        #: ``(time, seq, name, action, value)``, ordered by the first
        #: two; ``name`` is a code into :attr:`names`, and the loop
        #: calls ``action(value)``.
        self._heap: List[Tuple[float, int, int, Callable[[Any], Any], Any]] = []
        self._seq = 0
        #: Events fired so far; current *during* a run (an action reads
        #: a count that includes itself).
        self.events_fired = 0
        #: Every event name this engine schedules, as codes.
        self.names = EventNames()
        #: ``(time, seq, name)`` of every fired event, in firing order --
        #: seq included so that even same-instant reorderings (the
        #: hostile case) are visible -- or ``None`` when not tracing.
        self.trace: Optional[EventTrace] = (
            EventTrace(self.names) if trace else None
        )
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
        code = self.names.intern(f"{process.name}.start")
        heappush(
            self._heap, (self.clock.now, self._seq, code, process._resume, None)
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
            trace_code = records.codes.append
        horizon = inf if until is None else until
        limit = max_events if max_events > 0 else -1
        fired = 0
        while heap:
            entry = heappop(heap)
            time, seq, code, action, value = entry
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
                try:
                    trace_seq(seq)
                except OverflowError:  # a seq past 2**32 - 1, once
                    trace_seq = records._widen_seqs()
                    trace_seq(seq)
                trace_code(code)
            action(value)
        if until is not None:
            clock.advance_to(until)
        return fired

    def __repr__(self) -> str:
        return (
            f"EventEngine(t={self.clock.now:.9f}s, pending={len(self._heap)}, "
            f"fired={self.events_fired})"
        )
