"""The discrete-event core: ordering, processes, primitives, intervals.

The load-bearing guarantees:

* deterministic tie-breaking -- events at the same instant fire in
  scheduling order, so a run's event trace is a pure function of the
  schedule calls (the hostile same-timestamp test);
* processes, delays, and wait/signal compose without consuming time
  they should not;
* interval arithmetic (union, intersection, per-key overlap) is exact.
"""

import copy
import pickle
from itertools import chain

import pytest

from repro.sim.clock import SimClock
from repro.sim.engine import (
    NUMBER_SHIFT,
    EventEngine,
    EventNames,
    EventTrace,
    IntervalRecorder,
    Signal,
    Until,
    intersection_seconds,
    measure,
    measure_within,
    merge_intervals,
)
from tests.sim.scheduling import after, at, multihost_engine, pending, step


def _union(rec, kind):
    """The union of every key's intervals of ``kind``."""
    return merge_intervals(chain.from_iterable(rec.merged_by_key(kind).values()))


def _within(rec, kind, window):
    """Seconds of ``kind`` activity inside ``window``."""
    return measure_within(_union(rec, kind), window)


class TestEventOrdering:
    def test_events_fire_in_time_order(self):
        engine = EventEngine(trace=True)
        fired = []
        at(engine, 0.3, lambda: fired.append("c"), name="c")
        at(engine, 0.1, lambda: fired.append("a"), name="a")
        at(engine, 0.2, lambda: fired.append("b"), name="b")
        engine.run()
        assert fired == ["a", "b", "c"]
        assert engine.now == 0.3

    def test_same_timestamp_fires_in_schedule_order(self):
        """The hostile case: many events at one instant, scheduled in a
        deliberately adversarial order.  Tie-breaking is the scheduling
        sequence number -- never heap internals or name ordering."""
        engine = EventEngine(trace=True)
        fired = []
        names = ["z", "a", "m", "z", "a", "0", "~", " "]
        for name in names:
            at(engine, 0.5, lambda n=name: fired.append(n), name=name)
        engine.run()
        assert fired == names  # schedule order, not sorted order
        assert [n for _, _, n in engine.trace] == names
        seqs = [s for _, s, _ in engine.trace]
        assert seqs == sorted(seqs)

    def test_event_scheduled_during_fire_at_same_instant_runs_last(self):
        engine = EventEngine()
        fired = []
        at(engine, 0.1, lambda: (fired.append("first"),
                                 at(engine, 0.1, lambda: fired.append("nested"))))
        at(engine, 0.1, lambda: fired.append("second"))
        engine.run()
        assert fired == ["first", "second", "nested"]

    def test_cancelled_event_skipped(self):
        engine = EventEngine()
        fired = []
        keep = at(engine, 0.2, lambda: fired.append("keep"))
        drop = at(engine, 0.1, lambda: fired.append("drop"))
        drop.cancel()
        engine.run()
        assert fired == ["keep"]
        assert keep.time == 0.2

    def test_scheduling_in_the_past_rejected(self):
        engine = EventEngine()
        at(engine, 1.0, lambda: None)
        engine.run()
        with pytest.raises(ValueError, match="before now"):
            at(engine, 0.5, lambda: None)
        with pytest.raises(ValueError):
            after(engine, -0.1, lambda: None)

    def test_run_until_stops_at_horizon(self):
        engine = EventEngine()
        fired = []
        at(engine, 0.1, lambda: fired.append(1))
        at(engine, 5.0, lambda: fired.append(2))
        engine.run(until=1.0)
        assert fired == [1]
        assert engine.now == 1.0
        assert pending(engine) == 1

    def test_max_events_backstop(self):
        engine = EventEngine()

        def rearm():
            after(engine, 0.0, rearm)

        after(engine, 0.0, rearm)
        with pytest.raises(RuntimeError, match="runaway"):
            engine.run(max_events=100)


    def test_max_events_is_a_ceiling_not_a_quota(self):
        """Firing exactly ``max_events`` and draining is not a runaway;
        one more coming due is."""
        engine = EventEngine()
        fired = []
        for i in range(5):
            at(engine, 0.1 * (i + 1), lambda i=i: fired.append(i))
        assert engine.run(max_events=5) == 5
        assert fired == [0, 1, 2, 3, 4] and pending(engine) == 0

        at(engine, 1.0, lambda: fired.append("six"))
        at(engine, 1.0, lambda: fired.append("seven"))
        with pytest.raises(RuntimeError, match="exceeded 1 events"):
            engine.run(max_events=1)
        # The event that tripped the backstop did not fire and is still
        # scheduled; neither a cancelled callback nor an event beyond
        # `until` counts as "coming due".
        assert fired[-1] == "six" and pending(engine) == 1
        at(engine, 1.0, lambda: None).cancel()
        at(engine, 9.0, lambda: None)
        assert engine.run(until=2.0, max_events=1) == 1
        assert fired[-1] == "seven" and pending(engine) == 1

    def test_nan_time_rejected_at_the_schedule_call(self):
        """NaN compares false with everything: ``nan < now`` let it in,
        and a NaN heap entry then breaks the ordering of its neighbours
        (0.1 used to fire before 0.05 below)."""
        nan = float("nan")
        engine = EventEngine(trace=True)
        at(engine, 0.3, lambda: None, name="c")
        with pytest.raises(ValueError, match="cannot schedule 'bad' at nan"):
            at(engine, nan, lambda: None, name="bad")
        with pytest.raises(ValueError, match="non-negative"):
            after(engine, nan, lambda: None)
        for time, name in ((0.1, "a"), (0.2, "b"), (0.05, "z")):
            at(engine, time, lambda: None, name=name)
        engine.run()
        assert [n for _, _, n in engine.trace] == [
            "z", "a", "b", "c",
        ]

    @pytest.mark.parametrize(
        "waited, message",
        [
            (float("nan"), "non-negative"),
            (-0.5, "non-negative"),
            (-1, "non-negative"),
            (Until(float("nan")), "cannot schedule 'q.until' at nan"),
        ],
    )
    def test_process_yielding_a_bad_time_is_rejected(self, waited, message):
        engine = EventEngine(trace=True)

        def proc():
            yield 0.25
            yield waited

        engine.spawn(proc(), name="q")
        with pytest.raises(ValueError, match=message):
            engine.run()
        # Nothing was scheduled for it: no NaN row, nothing pending.
        assert [n for _, _, n in engine.trace] == [
            "q.start", "q.timer",
        ]
        assert pending(engine) == 0 and engine.now == 0.25

    def test_run_until_does_not_overshoot_past_a_cancelled_event(self):
        """A cancelled callback inside the slice does not drag the next
        live event in with it, however late."""
        engine = EventEngine()
        fired = []
        at(engine, 0.1, lambda: fired.append("dropped")).cancel()
        at(engine, 5.0, lambda: fired.append("late"))
        assert engine.run(until=1.0) == 0
        assert fired == [] and engine.now == 1.0 and pending(engine) == 1
        assert engine.run() == 1 and fired == ["late"]

    def test_cancelled_event_moves_nothing(self):
        engine = EventEngine(trace=True)
        at(engine, 0.5, lambda: None).cancel()
        assert engine.run() == 0
        assert engine.now == 0.0 and engine.events_fired == 0
        assert engine.trace == []

    def test_events_fired_is_current_inside_an_action(self):
        engine = EventEngine()
        seen = []
        for _ in range(3):
            after(engine, 0.0, lambda: seen.append(engine.events_fired))
        engine.run()
        assert seen == [1, 2, 3]

    def test_step_fires_one_event_and_returns_it(self):
        engine = EventEngine(trace=True)
        handle = at(engine, 0.2, lambda: None, name="mine")
        at(engine, 0.1, lambda: None).cancel()

        def proc():
            yield 0.3

        engine.spawn(proc(), name="p")
        assert step(engine) == (0.0, 2, "p.start")  # the spawn's first turn
        assert step(engine) == (handle.time, handle.seq, "mine")
        assert engine.now == 0.2
        assert step(engine) == (0.3, 3, "p.timer")
        assert step(engine) is None
        assert engine.events_fired == 3 == len(engine.trace)


class TestClockView:
    def test_engine_adopts_and_binds_clock(self):
        """The engine advances the clock it was given, and only that."""
        clock = SimClock(0.125)
        bystander = SimClock()
        engine = EventEngine(clock=clock)
        assert engine.clock is clock and engine.now == 0.125
        at(engine, 0.25, lambda: None)
        engine.run()
        assert clock.now == 0.25 and bystander.now == 0.0

    def test_fresh_engine_creates_bound_clock(self):
        engine = EventEngine()
        other = EventEngine()
        assert isinstance(engine.clock, SimClock)
        assert engine.clock is not other.clock
        at(engine, 0.5, lambda: None)
        engine.run()
        assert engine.clock.now == 0.5 and other.clock.now == 0.0


class TestProcesses:
    def test_timer_yields_advance_time(self):
        engine = EventEngine()
        log = []

        def proc():
            log.append(("start", engine.now))
            yield 0.5
            log.append(("mid", engine.now))
            yield 0.25
            log.append(("end", engine.now))

        process = engine.spawn(proc(), name="p")
        engine.run()
        assert process.done
        assert log == [("start", 0.0), ("mid", 0.5), ("end", 0.75)]

    def test_process_return_value_and_termination_signal(self):
        engine = EventEngine()
        seen = []

        def worker():
            yield 0.1
            return 42

        def watcher(target):
            value = yield target.terminated
            seen.append(value)

        process = engine.spawn(worker(), name="w")
        engine.spawn(watcher(process), name="watch")
        engine.run()
        assert process.result == 42
        assert seen == [42]

    def test_signal_wakes_waiters_in_wait_order(self):
        engine = EventEngine()
        signal = Signal(engine, "go")
        woken = []

        def waiter(tag):
            value = yield signal
            woken.append((tag, value))

        for tag in ("b", "a", "c"):
            engine.spawn(waiter(tag), name=f"wait-{tag}")
        after(engine, 0.2, lambda: signal.fire("payload"))
        engine.run()
        assert woken == [("b", "payload"), ("a", "payload"), ("c", "payload")]

    def test_signal_fire_without_waiters_is_noop(self):
        engine = EventEngine()
        signal = Signal(engine, "lonely")
        assert signal.fire("lost") == 0
        assert pending(engine) == 0
        assert engine.run() == 0 and engine.events_fired == 0

    def test_bad_yield_type_rejected(self):
        engine = EventEngine()

        def bad():
            yield "soon"

        engine.spawn(bad(), name="bad")
        with pytest.raises(TypeError, match="yielded"):
            engine.run()

    @pytest.mark.parametrize("waited", [None, 1j])
    def test_only_a_number_until_or_signal_may_be_yielded(self, waited):
        """``None`` is not a turn and a complex number is not a delay:
        nothing is scheduled for the process."""
        engine = EventEngine(trace=True)

        def proc():
            yield 0.5
            yield waited

        engine.spawn(proc(), name="p")
        with pytest.raises(TypeError, match="yielded"):
            engine.run()
        assert pending(engine) == 0 and engine.now == 0.5

    def test_negative_timer_rejected(self):
        engine = EventEngine()

        def proc():
            yield -1.0

        engine.spawn(proc(), name="p")
        with pytest.raises(ValueError, match="non-negative"):
            engine.run()
        assert pending(engine) == 0

    def test_until_is_bit_exact(self):
        """The local-lookahead catch-up: ``now + (t - now)`` need not
        equal ``t`` in floating point (0.1 + (0.41 - 0.1) misses 0.41 by
        an ulp), so a delay-based catch-up drifts once per request.
        Until lands on the absolute target exactly."""
        engine = EventEngine()
        landed = []

        def proc():
            yield 0.1
            yield Until(0.41)
            landed.append(engine.now)

        engine.spawn(proc(), name="p")
        engine.run()
        assert 0.1 + (0.41 - 0.1) != 0.41  # the hazard being guarded
        assert landed == [0.41]

    def test_until_in_the_past_resumes_immediately(self):
        engine = EventEngine()
        landed = []

        def proc():
            yield 0.5
            yield Until(0.2)  # already past: no time travel, no stall
            landed.append(engine.now)

        engine.spawn(proc(), name="p")
        engine.run()
        assert landed == [0.5]


class TestDeterminism:
    @staticmethod
    def _chaotic_run(seed_order):
        """Many processes racing timers and signals at coinciding times."""
        engine = EventEngine(trace=True)
        signal = Signal(engine, "shared")
        log = []

        def ticker(tag, period):
            for _ in range(4):
                yield period
                log.append((tag, engine.now))
                signal.fire(tag)

        def listener(tag):
            for _ in range(3):
                value = yield signal
                log.append((tag, value, engine.now))

        for tag, period in seed_order:
            engine.spawn(ticker(tag, period), name=f"tick-{tag}")
        engine.spawn(listener("L1"), name="L1")
        engine.spawn(listener("L2"), name="L2")
        engine.run()
        return log, list(engine.trace)

    def test_identical_trace_across_runs(self):
        order = [("x", 0.25), ("y", 0.5), ("z", 0.25)]
        log1, trace1 = self._chaotic_run(order)
        log2, trace2 = self._chaotic_run(order)
        assert log1 == log2
        assert trace1 == trace2
        # Coinciding timestamps actually occurred (x and z tick together),
        # so the equality above exercised the tie-break.
        times = [t for t, _, _ in trace1]
        assert len(times) != len(set(times))


class TestIntervalRecorder:
    def test_union_merges_overlaps(self):
        rec = IntervalRecorder()
        rec.series("busy", "d0").append((0.0, 1.0))
        rec.series("busy", "d0").append((0.5, 2.0))
        rec.series("busy", "d0").append((3.0, 4.0))
        spans = rec.merged_by_key("busy")["d0"]
        assert spans == [(0.0, 2.0), (3.0, 4.0)]
        assert measure(spans) == pytest.approx(3.0)

    def test_union_across_keys(self):
        rec = IntervalRecorder()
        rec.series("busy", "d0").append((0.0, 1.0))
        rec.series("busy", "d1").append((0.5, 1.5))
        assert _union(rec, "busy") == [(0.0, 1.5)]
        assert rec.keys("busy") == ["d0", "d1"]

    def test_overlap_is_intersection_measure(self):
        rec = IntervalRecorder()
        rec.series("think", "h0").append((0.0, 1.0))
        rec.series("service", "d0").append((0.5, 2.0))
        think, service = _union(rec, "think"), _union(rec, "service")
        assert intersection_seconds(think, service) == pytest.approx(0.5)
        assert intersection_seconds(service, think) == pytest.approx(0.5)

    def test_per_key_overlap_counts_each_host(self):
        rec = IntervalRecorder()
        # Two hosts thinking through the same busy second: both hid work.
        rec.series("think", "h0").append((0.0, 1.0))
        rec.series("think", "h1").append((0.0, 1.0))
        rec.series("service", "d0").append((0.0, 1.0))
        busy = _union(rec, "service")
        assert intersection_seconds(
            _union(rec, "think"), busy
        ) == pytest.approx(1.0)
        per_key = sum(
            intersection_seconds(spans, busy)
            for spans in rec.merged_by_key("think").values()
        )
        assert per_key == pytest.approx(2.0)

    def test_zero_length_skipped_and_backwards_rejected(self, monkeypatch):
        """The multihost think loop takes each host's series before its
        first think and appends only when ``end > start``: a host whose
        thinks are zero-length leaves its series empty, and an empty
        series is no key of any report.  No think runs backwards: the
        engine refuses a negative delay from a process."""
        engine = multihost_engine(
            monkeypatch, hosts=2, requests_per_host=3, think_seconds=[0.0, 0.001]
        )
        rec = engine.intervals
        assert rec.series("think", "host0") == []
        assert rec.keys("think") == ["host1"]
        assert list(rec.merged_by_key("think")) == ["host1"]

        def backwards():
            yield -1.0

        engine = EventEngine()
        engine.spawn(backwards(), name="host0")
        with pytest.raises(ValueError, match="non-negative"):
            engine.run()


class TestTotalWithinBoundaries:
    """The pinned half-open convention for window clipping
    (:func:`measure_within` over a recorded union): intervals exactly
    abutting a window edge contribute zero, tiling windows partition
    measure exactly, degenerate windows are zero."""

    def recorder(self):
        rec = IntervalRecorder()
        rec.series("busy", "d0").append((1.0, 2.0))
        rec.series("busy", "d0").append((3.0, 5.0))
        return rec

    def test_interior_clip(self):
        rec = self.recorder()
        assert _within(rec, "busy", (1.5, 4.0)) == pytest.approx(1.5)

    def test_interval_ending_at_window_start_contributes_zero(self):
        rec = self.recorder()
        # [1, 2) abuts the window [2, 3): one shared point, measure zero.
        assert _within(rec, "busy", (2.0, 3.0)) == pytest.approx(0.0)

    def test_interval_starting_at_window_end_contributes_zero(self):
        rec = self.recorder()
        # [3, 5) starts exactly where the window [2.5, 3) ends.
        assert _within(rec, "busy", (2.5, 3.0)) == pytest.approx(0.0)

    def test_exactly_coincident_window(self):
        rec = self.recorder()
        assert _within(rec, "busy", (1.0, 2.0)) == pytest.approx(1.0)

    def test_tiling_windows_partition_measure(self):
        # Split at a point interior to an interval: the two halves must
        # sum to the untiled total -- no double count, no drop at the cut.
        rec = self.recorder()
        whole = _within(rec, "busy", (0.0, 6.0))
        for cut in (1.0, 1.5, 2.0, 3.0, 4.0, 5.0):
            left = _within(rec, "busy", (0.0, cut))
            right = _within(rec, "busy", (cut, 6.0))
            assert left + right == pytest.approx(whole), cut
        assert whole == pytest.approx(measure(_union(rec, "busy")))

    def test_empty_and_inverted_windows_are_zero(self):
        rec = self.recorder()
        assert _within(rec, "busy", (1.5, 1.5)) == 0.0
        assert _within(rec, "busy", (4.0, 1.0)) == 0.0

    def test_window_entirely_outside_activity(self):
        rec = self.recorder()
        assert _within(rec, "busy", (6.0, 9.0)) == 0.0
        assert _within(rec, "busy", (2.0, 3.0)) == 0.0  # the gap

    def test_unknown_kind_is_zero(self):
        rec = self.recorder()
        assert _within(rec, "nope", (0.0, 10.0)) == 0.0


class TestEventTrace:
    """``engine.trace`` stores columns and reads back as the list of
    ``(time, seq, name)`` rows it replaced."""

    @staticmethod
    def _traced():
        """A traced run with ties, signal wake-ups and a 0.0 time, and
        the rows it fired, built as plain tuples."""
        engine = EventEngine(trace=True)
        signal = Signal(engine, "go")

        def waiter():
            yield signal
            yield 0.5

        def firer():
            yield 0.25
            signal.fire()

        engine.spawn(waiter(), name="w")
        engine.spawn(firer(), name="f")
        engine.run()
        rows = [
            (0.0, 0, "w.start"),
            (0.0, 1, "f.start"),
            (0.25, 2, "f.timer"),
            (0.25, 3, "go->w"),
            (0.75, 4, "w.timer"),
        ]
        return engine.trace, rows

    def test_the_trace_is_columns(self):
        trace, rows = self._traced()
        assert isinstance(trace, EventTrace)
        assert list(trace.times) == [row[0] for row in rows]
        assert list(trace.seqs) == [row[1] for row in rows]
        assert [trace.table.name(code) for code in trace.codes] == [
            row[2] for row in rows
        ]
        assert trace.seqs.itemsize == 4 and trace.codes.typecode == "q"

    def test_equal_to_its_rows_from_both_sides(self):
        trace, rows = self._traced()
        assert trace == rows and rows == trace
        assert not (trace != rows) and not (rows != trace)
        other = rows[:-1] + [(0.75, 4, "w.until")]
        assert trace != other and other != trace
        assert not (trace == other) and not (other == trace)
        assert trace != rows[:-1] and rows[:-1] != trace
        assert trace != tuple(rows) and trace != None  # noqa: E711

    def test_empty_trace_equals_the_empty_list(self):
        engine = EventEngine(trace=True)
        assert engine.trace == [] and [] == engine.trace
        engine.run()
        assert engine.trace == [] and len(engine.trace) == 0
        assert engine.trace != [(0.0, 0, "x")]

    def test_two_traces_compare_by_content(self):
        first, _ = self._traced()
        second, _ = self._traced()
        assert first is not second and first == second
        second.codes[-1] = second.table.intern("w.until")
        assert first != second

    def test_repr_is_the_rows_repr(self):
        trace, rows = self._traced()
        assert repr(trace) == repr(rows)
        assert repr(EventEngine(trace=True).trace) == "[]"

    def test_len_iteration_indexing_and_slicing(self):
        """The trace has ``len`` and iteration, not indexing: a reader
        takes ``list(trace)``, and its rows and slices are the list's."""
        trace, rows = self._traced()
        assert len(trace) == len(rows) == 5
        listed = list(trace)
        assert listed == rows
        assert [row for row in trace] == rows
        assert listed[-1] == (0.75, 4, "w.timer")
        assert type(listed[0][0]) is float and type(listed[0][1]) is int
        assert listed[1:3] == rows[1:3]

    def test_untraced_engine_has_no_trace(self):
        engine = EventEngine()

        def sleeper():
            yield 0.5

        engine.spawn(sleeper(), name="p")
        assert engine.run() == 2
        assert engine.trace is None
        assert EventEngine(trace=False).trace is None

    def test_deepcopy_and_pickle_round_trips_compare_equal(self):
        trace, rows = self._traced()
        for clone in (
            copy.deepcopy(trace),
            pickle.loads(pickle.dumps(trace)),
        ):
            assert type(clone) is EventTrace and clone is not trace
            assert clone == trace and clone == rows
            assert repr(clone) == repr(trace)
        clone = copy.deepcopy(trace)
        clone.codes.append(clone.table.intern("extra"))
        clone.times.append(1.0)
        clone.seqs.append(5)
        assert len(trace) == 5 and clone != trace

    def test_a_seq_past_four_bytes_widens_the_column_once(self):
        engine = EventEngine(trace=True)
        engine._seq = 2**32 - 2
        for name in ("a", "b", "c"):
            at(engine, 1.0, lambda: None, name=name)
        engine.run()
        assert engine.trace.seqs.itemsize == 8
        assert engine.trace == [
            (1.0, 2**32 - 2, "a"),
            (1.0, 2**32 - 1, "b"),
            (1.0, 2**32, "c"),
        ]

    def test_traces_coded_by_different_tables_compare_by_rows(self):
        first, rows = self._traced()
        engine = EventEngine(trace=True)
        engine.names.intern("an entry the other table does not have")
        for time, seq, name in rows:
            engine.trace.times.append(time)
            engine.trace.seqs.append(seq)
            engine.trace.codes.append(engine.names.intern(name))
        assert list(engine.trace.codes) != list(first.codes)
        assert engine.trace == first and first == engine.trace


class TestEventNames:
    """A name is a code: a fixed name one entry, a numbered family one
    entry plus its number, and a signal's wake-up of a process one
    entry per pair that carries the signal's number."""

    def test_fixed_names_are_interned_once(self):
        names = EventNames()
        first = names.intern("host0.timer")
        assert names.intern("host1.timer") != first
        assert names.intern("host0.timer") == first
        assert names.name(first) == "host0.timer"

    def test_a_numbered_family_is_one_entry(self):
        names = EventNames()
        family = names.family("shard2.req", ".completed")
        codes = [family + (k << NUMBER_SHIFT) for k in (0, 7, 4031, 2**38)]
        assert [names.name(code) for code in codes] == [
            "shard2.req0.completed",
            "shard2.req7.completed",
            "shard2.req4031.completed",
            f"shard2.req{2**38}.completed",
        ]
        assert names.family("shard2.req", ".completed") == family
        assert names.intern("shard2.req") != family  # not the same entry
        assert len(names._prefixes) == 2

    def test_a_numbered_signal_wakes_each_waiter_under_its_own_name(self):
        engine = EventEngine(trace=True)
        family = engine.names.family("disk.req", ".completed")
        signal = Signal(engine, family + (12 << NUMBER_SHIFT))
        assert signal.name == "disk.req12.completed"

        def waiter():
            yield signal

        for host in ("h0", "h1"):
            engine.spawn(waiter(), name=host)
        engine.run()
        signal.fire("done")
        engine.run()
        assert [row[2] for row in engine.trace] == [
            "h0.start",
            "h1.start",
            "disk.req12.completed->h0",
            "disk.req12.completed->h1",
        ]
        assert repr(signal) == "Signal('disk.req12.completed', waiters=0)"
