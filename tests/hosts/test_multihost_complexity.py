"""A guard that counts, not times (the ``tests/fs/test_fs_complexity.py``
pattern; DESIGN.md section 12, "Host cost of an event").

The event engine, the disk process and the host loop are priced in
Python-level calls per host request -- a number that repeats exactly on
one interpreter and moves by a call or two between 3.10 and 3.12, where
a wall-clock threshold would flap on a shared box.  The ledger's shape
runs at ~21.7 calls per request with a callback disk process, a
one-frame ``submit`` and ``SimClock.now`` an attribute; the generator
disk process took 38.2, and the object-per-event engine before it 84.6
(81.4 untraced).
"""

import gc
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
#: Bytes a finished run's trace keeps alive, per fired event: columns of
#: 8-byte times and seqs plus one name pointer, and the per-request
#: wake-up names (``"<signal>-><process>"``), which only the trace holds.
#: A list of ``(time, seq, name)`` tuples kept 143.5.
TRACED_BYTES_PER_EVENT_CEILING = 64


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
