"""``repro.sim.engine`` against the engine it replaced, event for event.

``reference_engine.py`` is the parent commit's engine (one ``Event``
object per heap entry, a ``lambda`` per wake-up, ``run()`` calling
``step()`` per event).  Each seed below expands into one random
*program* -- pure data, so both engines are handed exactly the same one
-- that exercises everything a process may yield and everything a
callback may schedule, taken in ``run(until=...)`` slices.  After every
slice the two engines must agree ``==`` on the trace so far, the clock,
``events_fired`` and ``pending``; at the end, also on every process's
``result`` and on the program's own log (which records every value a
waiter was woken with, and ``events_fired`` as read from inside an
action).

The engine under test schedules only processes; the programs' bare
callbacks go on its heap through ``tests/sim/scheduling.py``, which
pushes the engine's own entry shape and takes a cancelled one off the
heap (the reference keeps it as a placeholder it skips, so ``pending``
counts live entries on both).  A second test drives the same programs
one event at a time, each a ``run()`` slice of one event, and holds
them to one undivided ``run()``.
"""

import heapq
import random
from functools import partial

import pytest

from repro.sim import engine as new_engine
from repro.sim.engine import Until
from tests.sim import reference_engine, scheduling

SEEDS = range(240)
HORIZON = 2.0


class _Real(float):
    """A float subclass: misses the exact-type dispatch on purpose."""


def _delay(rng):
    # Coinciding times are the interesting ones: draw from a coarse grid
    # (ties across processes) as often as from the continuum.
    if rng.random() < 0.5:
        return rng.choice([0.0, 0.0, 0.125, 0.25, 0.5])
    return rng.random() * 0.3


def _script(rng, depth=0):
    """A list of steps for one process (plain data)."""
    steps = []
    for _ in range(rng.randrange(3, 9)):
        kind = rng.choice(
            [
                "float", "float", "int", "real", "until",
                "wait", "fire", "fire", "after", "cancel", "spawn",
            ]
        )
        if kind == "float":
            steps.append(("float", _delay(rng)))
        elif kind == "int":
            steps.append(("int", rng.choice([0, 0, 1, True])))
        elif kind == "real":
            steps.append(("real", _delay(rng)))
        elif kind == "until":
            # Absolute: past as often as future.
            steps.append(("until", rng.random() * HORIZON))
        elif kind == "wait":
            steps.append(("wait", rng.randrange(3)))
        elif kind == "fire":
            # Signal 0 is the crowded one (see the listeners below).
            steps.append(
                ("fire", rng.choice([0, 0, 1, 2]), rng.randrange(1000))
            )
        elif kind == "after":
            # A callback that schedules `more` further ones at its own
            # instant.
            steps.append(("after", _delay(rng), rng.randrange(3)))
        elif kind == "cancel":
            steps.append(("cancel", _delay(rng), rng.random() < 0.5))
        elif kind == "spawn" and depth < 2:
            steps.append(("spawn", _script(rng, depth + 1)))
    return steps


def _program(seed):
    rng = random.Random(seed)
    scripts = [_script(rng) for _ in range(rng.randrange(3, 7))]
    # Several waiters on one signal, woken together by whoever fires it
    # next: listeners that do nothing but wait on signal 0.
    for _ in range(rng.randrange(4)):
        scripts.append([("wait", 0)] * rng.randrange(1, 4))
    rng.shuffle(scripts)
    return {
        "scripts": scripts,
        "slices": sorted(rng.random() * HORIZON for _ in range(3)),
        "result_salt": rng.randrange(1000),
    }


class _Run:
    """One program loaded onto one engine."""

    def __init__(self, module, program):
        self.engine = engine = module.EventEngine(trace=True)
        if module is reference_engine:
            self.at, self.after = engine.at, engine.after
        else:
            self.at = partial(scheduling.at, engine)
            self.after = partial(scheduling.after, engine)
        self.log = []
        self.signals = [module.Signal(engine, f"s{i}") for i in range(3)]
        self.salt = program["result_salt"]
        self.processes = []
        self.handles = []
        for i, script in enumerate(program["scripts"]):
            self._spawn(script, f"p{i}")

    def _spawn(self, script, name):
        process = self.engine.spawn(self._body(script, name), name=name)
        self.processes.append(process)
        return process

    def _callback(self, tag, more):
        engine = self.engine

        def fire():
            self.log.append(("cb", tag, engine.now, engine.events_fired))
            for i in range(more):
                # Same instant, scheduled from inside a firing event:
                # must run after everything already due now.
                again = f"{tag}.{i}"
                self.at(engine.now, self._callback(again, 0), name=again)

        return fire

    def _body(self, script, name):
        engine, log = self.engine, self.log
        for index, step in enumerate(script):
            kind = step[0]
            if kind == "float":
                yield step[1]
            elif kind == "int":
                yield step[1]
            elif kind == "real":
                yield _Real(step[1])
            elif kind == "until":
                yield Until(step[1])
            elif kind == "wait":
                value = yield self.signals[step[1]]
                log.append(("woke", name, step[1], value, engine.now))
            elif kind == "fire":
                value = (name, index, step[2])
                woken = self.signals[step[1]].fire(value)
                log.append(("fired", name, step[1], value, woken, engine.now))
            elif kind == "after":
                tag = f"{name}.cb{index}"
                self.handles.append(
                    self.after(step[1], self._callback(tag, step[2]), name=tag)
                )
            elif kind == "cancel":
                tag = f"{name}.dead{index}"
                handle = self.after(step[1], self._callback(tag, 0), name=tag)
                self.handles.append(handle)
                if step[2]:
                    handle.cancel()  # at once
                else:
                    yield step[1] / 2  # ... or halfway there
                    handle.cancel()
            elif kind == "spawn":
                child = self._spawn(step[1], f"{name}.c{index}")
                if not child.done:
                    result = yield child.terminated
                    assert result == child.result
                    log.append(("joined", name, child.name, result, engine.now))
            log.append(("step", name, index, engine.now))
        return (name, len(script), self.salt)

    def state(self):
        engine = self.engine
        return {
            "trace": _trace(engine),
            "now": engine.now,
            "events_fired": engine.events_fired,
            "pending": _pending(engine),
            "log": list(self.log),
            "results": [(p.name, p.done, p.result) for p in self.processes],
            "handles": [
                (h.time, h.seq, h.name, h.cancelled) for h in self.handles
            ],
        }


def _trace(engine):
    """The ``(time, seq, name)`` rows fired so far: the engine's trace
    stores them as columns and iterates as rows, the reference's
    ``EventTrace`` holds their list in ``records``."""
    return list(getattr(engine.trace, "records", engine.trace))


def _pending(engine):
    """Entries still to fire: the reference's heap also holds the
    cancelled ones it will skip."""
    if isinstance(engine, reference_engine.EventEngine):
        return sum(1 for _, _, event in engine._heap if not event.cancelled)
    return scheduling.pending(engine)


def _reference_run_until(engine, until):
    """``reference.run(until=...)`` without its overshoot.

    The reference ``run`` tests the horizon against the heap's head and
    then calls ``step()``, which skips cancelled entries *without
    looking at the horizon again*: a cancelled placeholder due inside
    the slice makes it fire whatever comes next, however far past
    ``until`` (``test_engine.py`` has the three-line reproduction).  So
    slices drive the reference one ``step()`` at a time, discarding a
    cancelled head here where ``run`` would have handed it to ``step``;
    the final undivided ``run()`` still goes through the reference's own
    loop.
    """
    fired = 0
    heap = engine._heap
    while heap and heap[0][0] <= until:
        if heap[0][2].cancelled:
            heapq.heappop(heap)
            continue
        assert engine.step() is not None
        fired += 1
    engine.clock.advance_to(until)
    return fired


def _check_wake_values(log):
    """Every waiter was woken with the value of a fire on the signal it
    waited on, and each fire woke exactly as many as it said it did."""
    fired = {}
    for entry in log:
        if entry[0] == "fired":
            _, _, signal, value, woken, _ = entry
            fired[(signal, value)] = woken
    woke = {}
    for entry in log:
        if entry[0] == "woke":
            _, _, signal, value, _ = entry
            assert (signal, value) in fired
            woke[(signal, value)] = woke.get((signal, value), 0) + 1
    # Wake-ups are events of their own: a drained run delivered them all.
    assert woke == {key: n for key, n in fired.items() if n}


@pytest.mark.parametrize("seed", SEEDS)
def test_random_program_matches_the_reference_engine(seed):
    program = _program(seed)
    old = _Run(reference_engine, program)
    new = _Run(new_engine, program)
    for until in program["slices"]:
        assert _reference_run_until(old.engine, until) == new.engine.run(
            until=until
        )
        assert old.state() == new.state()
        assert new.engine.now == until
    assert old.engine.run() == new.engine.run()
    final = new.state()
    assert old.state() == final
    assert final["pending"] == 0
    assert final["events_fired"] == len(final["trace"])
    _check_wake_values(final["log"])


@pytest.mark.parametrize("seed", SEEDS[::4])
def test_single_stepping_is_the_same_loop(seed):
    program = _program(seed)
    ran = _Run(new_engine, program)
    ran.engine.run()
    stepped = _Run(new_engine, program)
    returned = []
    while True:
        cancelled = {h.seq for h in stepped.handles if h.cancelled}
        row = scheduling.step(stepped.engine)
        if row is None:
            break
        assert row[1] not in cancelled
        returned.append(row)
    assert stepped.state() == ran.state()
    # What step() hands back is the entry it fired.
    assert returned == list(stepped.engine.trace)


def test_the_programs_cover_what_they_claim():
    """The generator is random; make sure the corpus as a whole reaches
    every yield shape, contention, cancellation and same-instant ties."""
    kinds = set()
    cancelled = contended = unheard = ties = 0
    for seed in SEEDS:
        run = _Run(new_engine, _program(seed))
        run.engine.run()
        state = run.state()
        cancelled += sum(1 for h in state["handles"] if h[3])
        for entry in state["log"]:
            kinds.add(entry[0])
            if entry[0] == "fired" and entry[4] == 0:
                unheard += 1
            if entry[0] == "fired" and entry[4] > 1:
                contended += 1
        times = [t for t, _, _ in state["trace"]]
        ties += len(times) - len(set(times))
        names = {name.rpartition(".")[2] for _, _, name in state["trace"]}
        kinds |= names & {"timer", "until", "start"}
    assert kinds >= {
        "woke", "fired", "joined", "cb", "step", "timer", "until", "start",
    }
    assert min(cancelled, contended, unheard, ties) > 50
