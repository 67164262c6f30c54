"""A guard that counts, not times (the ``tests/fs/test_fs_complexity.py``
pattern; DESIGN.md section 12, "Host cost of an event").

The event engine, the disk process and the host loop are priced in
Python-level calls per host request -- a number that repeats exactly on
one interpreter and moves by a call or two between 3.10 and 3.12, where
a wall-clock threshold would flap on a shared box.  The ledger's shape
runs at ~22.7 calls per request with a callback disk process, a
one-frame ``submit`` and ``SimClock.now`` an attribute; the generator
disk process took 38.2, and the object-per-event engine before it 84.6
(81.4 untraced).

Memory is counted the same way.  A finished traced report keeps 21.5
bytes per fired event: three number columns and the engine's name
table, each name an ``int`` code until a row is read.  A ``str`` name
per event kept 49.3, and a list of ``(time, seq, name)`` tuples 143.5.
"""

import gc
import sys
import tracemalloc

import pytest

from repro.disk.specs import ST19101
from repro.hosts.multihost import run_multihost
from repro.sched import scheduler as scheduler_module
from repro.sim import engine as engine_module
from tests._counting import count_calls
from tests.hosts.test_multihost_identity import (
    LEDGER_EVENTS_PER_REQUEST,
    SHAPES,
)

CALLS_PER_REQUEST_CEILING = 30
#: Bytes a finished run's trace keeps alive, per fired event: the outer
#: bound, from when the trace kept a ``str`` name per event (49.3).  A
#: list of ``(time, seq, name)`` tuples kept 143.5.
TRACED_BYTES_PER_EVENT_CEILING = 64
#: The same, with each name an integer code into the engine's name
#: table: an 8-byte time, a 4-byte seq and an 8-byte code per event,
#: plus the arrays' over-allocation (21.5).
CODED_BYTES_PER_EVENT_CEILING = 24


@pytest.mark.parametrize("trace", [True, False])
def test_python_calls_per_host_request(trace):
    calls, report = count_calls(
        lambda: run_multihost(
            ST19101, trace=trace, **SHAPES["ledger-8x4-satf-mixed"]
        )
    )
    assert calls / report["requests"] <= CALLS_PER_REQUEST_CEILING
    # The saving is per event, not fewer events.
    assert report["events"] / report["requests"] == LEDGER_EVENTS_PER_REQUEST


def test_disk_process_allocates_no_until(monkeypatch):
    """The disk process wakes at each completion by pushing its own
    heap entry: no ``Until`` is built per service."""
    made = []
    init = engine_module.Until.__init__

    def counting_init(self, time):
        made.append(time)
        init(self, time)

    monkeypatch.setattr(engine_module.Until, "__init__", counting_init)
    report = run_multihost(ST19101, **SHAPES["ledger-8x4-satf-mixed"])
    assert report["requests"] == 4000
    assert made == []


def test_engine_wake_ups_allocate_no_event(monkeypatch):
    """The engine has one kind of heap entry, ``(time, seq, name,
    action, value)``: timers, ``Until``s, signal wake-ups, spawns and
    the disk process's own wake-ups carry their action in the entry, and
    no handle object exists to allocate."""
    assert not hasattr(engine_module, "Event")
    shapes = []
    for module in (engine_module, scheduler_module):
        push = module.heappush

        def counting_push(heap, entry, push=push):
            shapes.append(len(entry))
            push(heap, entry)

        monkeypatch.setattr(module, "heappush", counting_push)
    report = run_multihost(ST19101, **SHAPES["ledger-8x4-satf-mixed"])
    assert report["requests"] == 4000 and report["events"] > 12000
    # Every fired event was pushed once, in the one shape.
    assert len(shapes) == report["events"]
    assert set(shapes) == {5}


def test_traced_bytes_per_event():
    """What ``report["trace"]`` retains, counted by tracemalloc as the
    bytes freed when the report drops it."""
    tracemalloc.start()
    try:
        report = run_multihost(
            ST19101, trace=True, **SHAPES["ledger-8x4-satf-mixed"]
        )
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        events = len(report.pop("trace"))
        gc.collect()
        retained = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert events == report["events"] > 12000
    assert retained / events <= TRACED_BYTES_PER_EVENT_CEILING


def test_a_traced_event_keeps_its_numbers():
    """A finished report's trace keeps its three number columns and the
    engine's name table: no ``str`` per request (tracemalloc for the
    bytes, ``sys.getallocatedblocks`` for the objects the report frees
    when it drops the trace, read before any row is)."""
    tracemalloc.start()
    try:
        report = run_multihost(
            ST19101, trace=True, **SHAPES["ledger-8x4-satf-mixed"]
        )
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        blocks = sys.getallocatedblocks()
        trace = report.pop("trace")
        events = len(trace)
        del trace
        gc.collect()
        retained = held - tracemalloc.get_traced_memory()[0]
        objects = blocks - sys.getallocatedblocks()
    finally:
        tracemalloc.stop()
    assert events == report["events"] > 12000
    assert retained / events <= CODED_BYTES_PER_EVENT_CEILING
    # Three arrays and the name table -- its strings and keys, 229
    # objects on this shape whatever the request count -- not a name per
    # request: with a ``str`` per completion the trace freed 4 034.
    assert objects / report["requests"] < 0.1


@pytest.mark.parametrize("trace", [True, False])
def test_a_run_renders_no_event_name(trace, monkeypatch):
    """An event's name is an integer code until a trace row is read:
    every entry the run pushes carries an ``int``, and the table's
    renderer is not called, traced or not, until the rows are read."""
    shape = SHAPES["ledger-8x4-satf-mixed"]
    names = []
    for module in (engine_module, scheduler_module):
        push = module.heappush

        def counting_push(heap, entry, push=push):
            names.append(type(entry[2]))
            push(heap, entry)

        monkeypatch.setattr(module, "heappush", counting_push)
    report = run_multihost(ST19101, trace=trace, **shape)
    assert len(names) == report["events"] and set(names) == {int}

    rendered = []
    render = engine_module.EventNames.name

    def counting_render(table, code):
        rendered.append(code)
        return render(table, code)

    monkeypatch.setattr(engine_module.EventNames, "name", counting_render)
    report = run_multihost(ST19101, trace=trace, **shape)
    assert rendered == []
    if trace:
        rows = list(report["trace"])
        assert len(rendered) == len(rows) == report["events"]
