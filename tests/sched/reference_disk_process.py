"""The scheduler's engine-mode path as it stood before the disk process
became a callback state machine.

:func:`_run` is the generator that was the disk process: it yielded the
``submitted`` signal while the queue was empty and an ``Until`` per
service, and ``Process._resume`` dispatched each yield by type.
:func:`_service_one` is the service entry with its pass-over loop
(every pending request's count incremented on each policy pick), and
:func:`_enqueue` / :func:`_attach_engine` / :func:`_submit` /
:func:`_close` are the methods that fed that generator.  They are the
parent commit's code moved here verbatim, so do not optimise or tidy
them: ``test_disk_process_differential.py`` holds
:class:`repro.sched.scheduler.DiskScheduler` to them -- same report,
same ``(time, seq, name)`` trace, same final ``passes`` per request.
The one later edit: :func:`_service_one` lost the fail-slow check and
the completion log with the live scheduler, since a limping shard is a
fault plane on its disk, which both versions meet inside ``disk.write``.

:func:`reference_disk_process` swaps them onto ``DiskScheduler`` for
the duration of a ``with`` block; everything else (the disk, the
policies, the engine, the host processes, the report) is shared with
the code under test.  One behaviour here is a bug the rewrite fixed:
``submit()`` after ``close()`` enqueues a request no process services.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Generator, Iterator, Optional

from repro.sched.scheduler import DiskRequest, DiskScheduler
from repro.sim.engine import EventEngine, Process, Signal, Until


def _enqueue(
    self,
    op: str,
    sector: int,
    count: int,
    data: Optional[bytes],
    charge_scsi: bool,
) -> DiskRequest:
    # Arrival is host-side time: engine time when attached (the disk's
    # local clock may sit ahead at its free-at frontier), disk clock
    # otherwise (synchronously the two are the same clock).
    engine = self._engine
    arrival = (
        engine.clock.now if engine is not None else self.disk.clock.now
    )
    req = DiskRequest(
        op, sector, count, data, charge_scsi, self._seq, arrival
    )
    self._seq += 1
    self._pending.append(req)
    if len(self._pending) > self.max_outstanding:
        self.max_outstanding = len(self._pending)
    return req


def _service_one(self) -> DiskRequest:
    """Service one pending request, chosen by policy (or by the
    starvation override)."""
    if not self._pending:
        raise RuntimeError("no pending requests to service")
    oldest = self._pending[0]
    if oldest.passes >= self.starvation_bound or len(self._pending) == 1:
        # Aging override: the backlog drains oldest-first and pass
        # counts freeze, so no request's count ever exceeds the bound
        # (a younger request's count never exceeds an older one's,
        # and counts only grow while the oldest is still under it).
        chosen = oldest
    else:
        chosen = self.policy.pick(self._pending, self.disk)
        for req in self._pending:
            if req is not chosen:
                req.passes += 1
    if chosen is oldest:
        del self._pending[0]
    else:
        self._pending.remove(chosen)
    clock = self.disk.clock
    chosen.service_start = clock.now
    try:
        if chosen.op == "read":
            data, breakdown = self.disk.read(
                chosen.sector, chosen.count, charge_scsi=chosen.charge_scsi
            )
            chosen.result = data
        elif chosen.block_sectors is not None:
            # Run requests fold their per-block charges straight into
            # the unclaimed accumulator: callers may split one logical
            # run across several requests, and only a single shared
            # accumulation keeps the folded totals bit-identical to
            # the per-block scalar path (float adds don't reassociate).
            breakdown = self.disk.write_run(
                chosen.sector,
                chosen.count,
                chosen.block_sectors,
                chosen.data,
                charge_scsi=chosen.charge_scsi,
                accumulate=self._unclaimed,
            )
        else:
            breakdown = self.disk.write(
                chosen.sector,
                chosen.count,
                chosen.data,
                charge_scsi=chosen.charge_scsi,
            )
    except BaseException:
        # A fault surfaced mid-service (injected error, crash): the
        # request leaves the queue and the exception propagates to
        # whoever triggered the servicing -- at depth 1, the original
        # submitter, exactly as in the unscheduled code.
        chosen.failed = True
        chosen.done = True
        raise
    chosen.breakdown = breakdown
    chosen.completion = completion = clock.now
    chosen.done = True
    if chosen.op == "write" and chosen.block_sectors is None:
        self._unclaimed.add(breakdown)
    self.serviced += 1
    service_seconds = completion - chosen.service_start
    self.busy_seconds += service_seconds
    self.service_times.record(service_seconds)
    self.response_times.record(completion - chosen.arrival)
    return chosen


def _attach_engine(self, engine: EventEngine, name: str = "disk") -> Process:
    """Spawn this scheduler as a named process of ``engine``.

    From then on hosts enqueue with :meth:`submit` and wait on each
    request's ``completed`` signal; the process services pending
    requests work-conservingly, each service spanning real engine
    time (recorded as a ``"service"`` interval for exact overlap
    accounting).  The disk's own clock becomes a local free-at
    frontier: advanced to engine time before each service, then ahead
    of it while the closed-form mechanics price the operation, with
    the engine catching up via a timer.
    """
    if self._engine is not None:
        raise RuntimeError(f"scheduler {self.name!r} already attached")
    self._engine = engine
    self.name = name
    self._submitted = Signal(engine, f"{name}.submitted")
    return engine.spawn(self._run(), name=name)


def _submit(
    self,
    op: str,
    sector: int,
    count: int = 1,
    data: Optional[bytes] = None,
    charge_scsi: bool = True,
) -> DiskRequest:
    """Enqueue without servicing (engine mode).  Returns the request;
    its ``completed`` signal fires -- with the request as value -- at
    the service's real completion time."""
    if self._engine is None or self._submitted is None:
        raise RuntimeError("submit() requires attach_engine()")
    req = self._enqueue(op, sector, count, data, charge_scsi)
    req.completed = Signal(
        self._engine, f"{self.name}.req{req.seq}.completed"
    )
    self._submitted.fire()
    return req


def _close(self) -> None:
    """End the disk process once its queue drains (run teardown)."""
    self._closed = True
    if self._submitted is not None:
        self._submitted.fire()


def _run(self) -> Generator:
    engine = self._engine
    assert engine is not None
    assert self._submitted is not None
    # Bound once per process, not per request: the two clocks (the
    # engine's view, and the disk's local frontier -- the same
    # object when the disk was built on the engine's clock) and the
    # list this process's service intervals go to.
    engine_clock = engine.clock
    disk_clock = self.disk.clock
    spans = engine.intervals.series("service", self.name)
    while True:
        if not self._pending:
            if self._closed:
                return
            yield self._submitted
            continue
        start = engine_clock.now
        # Catch the local frontier up to global time, service
        # closed-form (the disk clock runs ahead), then sleep the
        # service duration so engine time matches the completion.
        disk_clock.advance_to(start)
        req = self.service_one()
        end = disk_clock.now
        if not end >= start:
            raise ValueError(f"interval ends before it starts: {start}..{end}")
        if end > start:
            spans.append((start, end))
        # Absolute, not a delay: `now + (end - now)` need not equal
        # `end` in floating point, and the depth-1 identity demands
        # engine time land bit-exactly on the closed-form completion.
        # (When the disk clock *is* the engine clock, `end` is
        # already now and this resumes immediately.)
        yield Until(end)
        if req.completed is not None:
            req.completed.fire(req)


_REFERENCE = {
    "_enqueue": _enqueue,
    "service_one": _service_one,
    "attach_engine": _attach_engine,
    "submit": _submit,
    "close": _close,
    "_run": _run,
}


@contextmanager
def reference_disk_process() -> Iterator[None]:
    """Run every ``DiskScheduler`` made inside the block on the
    generator disk process above; the class is restored on exit."""
    saved = {
        name: DiskScheduler.__dict__[name]
        for name in _REFERENCE
        if name in DiskScheduler.__dict__
    }
    for name, method in _REFERENCE.items():
        setattr(DiskScheduler, name, method)
    try:
        yield
    finally:
        for name in _REFERENCE:
            if name in saved:
                setattr(DiskScheduler, name, saved[name])
            else:
                delattr(DiskScheduler, name)
