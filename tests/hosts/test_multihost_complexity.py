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

import pytest

from repro.disk.specs import ST19101
from repro.hosts.multihost import run_multihost
from repro.sim import engine as engine_module
from tests._counting import count_calls
from tests.hosts.test_multihost_identity import (
    LEDGER_EVENTS_PER_REQUEST,
    SHAPES,
)

CALLS_PER_REQUEST_CEILING = 30


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
    """Timers, ``Until``s, signal wake-ups and spawns carry their action
    in the heap entry; only ``at()`` / ``after()`` callers, who get a
    cancellation handle back, cost an ``Event``."""
    made = []
    init = engine_module.Event.__init__

    def counting_init(self, time, seq, name, action):
        made.append(name)
        init(self, time, seq, name, action)

    monkeypatch.setattr(engine_module.Event, "__init__", counting_init)
    report = run_multihost(ST19101, **SHAPES["ledger-8x4-satf-mixed"])
    assert report["requests"] == 4000 and report["events"] > 12000
    assert made == []

    engine = engine_module.EventEngine()
    engine.at(0.5, lambda: None, name="mine")
    engine.after(0.25, lambda: None, name="yours")
    engine.run()
    assert made == ["mine", "yours"]
