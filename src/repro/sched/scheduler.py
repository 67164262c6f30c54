"""The disk request queue.

:class:`DiskScheduler` sits between a host (or block device) and the raw
:class:`~repro.disk.disk.Disk`.  Writes are *submitted*; the scheduler
services them -- in policy order -- whenever the queue reaches
``queue_depth``, when idle time is granted (:meth:`drain`), or while a
synchronous read works its way to completion.  Completion times therefore
come from the scheduler, not from serialized ``Disk.write`` calls.

The queue only schedules: a limping disk is a fault on the medium
(a :class:`~repro.blockdev.interpose.FaultPlane` fail-slow window), and
when services ran is the engine's ``"service"`` intervals.

Timing model: the simulator's single clock advances only inside disk
operations, so a "service" is atomic -- positioning, rotation, and
transfer happen back to back.  ``queue_depth=1`` degenerates to servicing
every request at submit time, which issues literally the same
``disk.read``/``disk.write`` call sequence as the unscheduled seed code:
the byte-identity guarantee the figure pins rely on.

Engine mode: under an :class:`~repro.sim.engine.EventEngine` the
scheduler is a *process* (:meth:`attach_engine`).  Hosts enqueue with
:meth:`submit` and wait on the request's ``completed`` signal; the disk
process services work-conservingly whenever requests are pending, each
service occupying a real span of engine time, and completion is an
*event* -- not a lazy drain somebody has to remember to call.  The
synchronous path above is untouched (:meth:`barrier` is a drain there,
and refuses an engine-attached scheduler, whose queue the disk process
owns), so depth-1 figure identity holds by construction.

Starvation: greedy policies (SATF especially) can pass over a distant
request indefinitely under a hostile arrival stream.  The scheduler
counts how often each pending request is passed over by a *policy*
choice; once the oldest request has been passed ``starvation_bound``
times it is serviced next, policy notwithstanding, and counts freeze
while the aged backlog drains oldest-first -- so no request's pass-over
count ever exceeds the bound.  Every policy pick passes over every
pending request but the one it takes, so a request's count is the
number of policy picks made since it was enqueued: one counter of
picks, and each request's ``mark`` of that counter at enqueue.
"""

from __future__ import annotations

from heapq import heappush
from typing import List, Optional, Tuple, Union

from repro.disk.disk import Disk
from repro.sched.policies import SchedulingPolicy, make_policy
from repro.sim.engine import NUMBER_SHIFT, EventEngine, Process, Signal
from repro.sim.metrics import LatencyHistogram
from repro.sim.stats import Breakdown


class DiskRequest:
    """One queued disk request and its lifecycle timestamps."""

    __slots__ = (
        "op",
        "sector",
        "count",
        "data",
        "charge_scsi",
        "seq",
        "arrival",
        "mark",
        "passes",
        "done",
        "failed",
        "result",
        "breakdown",
        "block_sectors",
        "service_start",
        "completion",
        "completed",
    )

    def __init__(
        self,
        op: str,
        sector: int,
        count: int,
        data: Optional[bytes],
        charge_scsi: bool,
        seq: int,
        arrival: float,
    ) -> None:
        self.op = op
        self.sector = sector
        self.count = count
        self.data = data
        self.charge_scsi = charge_scsi
        #: Block granularity for batched run writes (``None`` for plain
        #: requests): serviced through ``Disk.write_run``.
        self.block_sectors: Optional[int] = None
        self.seq = seq
        self.arrival = arrival
        #: The scheduler's policy-pick count when this request was
        #: enqueued; ``passes`` is settled from it at service.
        self.mark = 0
        #: Times a policy pick passed this request over, final once it
        #: leaves the queue (serviced or discarded).
        self.passes = 0
        self.done = False
        self.failed = False
        self.result: Optional[bytes] = None
        self.breakdown: Optional[Breakdown] = None
        self.service_start: Optional[float] = None
        self.completion: Optional[float] = None
        #: Completion event, set by :meth:`DiskScheduler.submit` in engine
        #: mode; ``None`` on the synchronous path.
        self.completed: Optional[Signal] = None

    def __repr__(self) -> str:
        state = "done" if self.done else f"pending(passes={self.passes})"
        return (
            f"DiskRequest(#{self.seq} {self.op} sector={self.sector} "
            f"count={self.count} {state})"
        )


class DiskScheduler:
    """A bounded request queue over one disk, with a pluggable policy.

    Args:
        disk: The disk whose mechanics service (and price) requests.
        policy: Policy name (``fifo``/``scan``/``satf``) or instance.
        queue_depth: Maximum outstanding requests; submitting beyond it
            services requests until the queue fits.  Depth 1 services at
            submit time (the unscheduled seed behaviour).
        starvation_bound: Maximum times a request may be passed over.
    """

    def __init__(
        self,
        disk: Disk,
        policy: Union[str, SchedulingPolicy] = "fifo",
        queue_depth: int = 1,
        starvation_bound: int = 16,
    ) -> None:
        if queue_depth <= 0:
            raise ValueError("queue depth must be positive")
        if starvation_bound <= 0:
            raise ValueError("starvation bound must be positive")
        self.disk = disk
        self.policy = make_policy(policy) if isinstance(policy, str) else policy
        self.queue_depth = queue_depth
        self.starvation_bound = starvation_bound
        #: Pending requests in arrival order (oldest first).
        self._pending: List[DiskRequest] = []
        self._seq = 0
        #: Policy picks so far: a pending request has been passed over
        #: ``_picks - request.mark`` times.
        self._picks = 0
        #: Breakdowns of serviced writes not yet claimed by a caller.
        self._unclaimed = Breakdown()
        self.serviced = 0
        self.busy_seconds = 0.0
        self.max_outstanding = 0
        self.service_times = LatencyHistogram()
        self.response_times = LatencyHistogram()
        # Engine mode (attach_engine): the scheduler as an event process.
        self._engine: Optional[EventEngine] = None
        self.name = "disk"
        self._process: Optional[_DiskProcess] = None
        self._closed = False

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------

    @property
    def outstanding(self) -> int:
        """Requests currently queued (the MetricsDevice overlap probe)."""
        return len(self._pending)

    def write(
        self,
        sector: int,
        count: int = 1,
        data: Optional[bytes] = None,
        charge_scsi: bool = True,
    ) -> DiskRequest:
        """Submit a write; services requests until the queue fits.

        Returns the request object: at depth 1 it is already done (its
        breakdown claimable via :meth:`take_breakdown`); at greater depth
        it completes during later submissions, reads, or a drain.
        """
        if self.queue_depth == 1 and not self._pending:
            # Enqueued, it would be the only pending request, picked
            # without a policy pass and serviced at once: service it
            # here, stamped as _enqueue stamps it (no pass-over to settle).
            req = self._stamp("write", sector, count, data, charge_scsi)
            if not self.max_outstanding:
                self.max_outstanding = 1
            return self._service(req)
        req = self._enqueue("write", sector, count, data, charge_scsi)
        while len(self._pending) >= self.queue_depth:
            self.service_one()
        return req

    def write_run(
        self,
        sector: int,
        count: int,
        block_sectors: int,
        data: Optional[bytes] = None,
        charge_scsi: bool = True,
    ) -> DiskRequest:
        """Submit a physically contiguous run of block writes as one
        request, serviced through :meth:`Disk.write_run` (per-block
        timing, batched bookkeeping).  Queue semantics match
        :meth:`write`."""
        req = self._enqueue("write", sector, count, data, charge_scsi)
        req.block_sectors = block_sectors
        while len(self._pending) >= self.queue_depth:
            self.service_one()
        return req

    def read(
        self, sector: int, count: int = 1, charge_scsi: bool = True
    ) -> Tuple[bytes, Breakdown]:
        """Submit a read and service until it completes (reads are
        synchronous: the caller needs the data).  Queued writes may be
        serviced first if the policy prefers them."""
        req = self._enqueue("read", sector, count, None, charge_scsi)
        while not req.done:
            self.service_one()
        assert req.result is not None and req.breakdown is not None
        return req.result, req.breakdown

    def _stamp(
        self,
        op: str,
        sector: int,
        count: int,
        data: Optional[bytes],
        charge_scsi: bool,
    ) -> DiskRequest:
        """A new request with its sequence number, arrival and pass-over
        mark: how every synchronous submission is stamped, queued by
        :meth:`_enqueue` or serviced at once by :meth:`write`."""
        # Arrival is host-side time: engine time when attached (the disk's
        # local clock may sit ahead at its free-at frontier), disk clock
        # otherwise (synchronously the two are the same clock).
        engine = self._engine
        arrival = (
            engine.clock.now if engine is not None else self.disk.clock.now
        )
        seq = self._seq
        self._seq = seq + 1
        req = DiskRequest(op, sector, count, data, charge_scsi, seq, arrival)
        req.mark = self._picks
        return req

    def _enqueue(
        self,
        op: str,
        sector: int,
        count: int,
        data: Optional[bytes],
        charge_scsi: bool,
    ) -> DiskRequest:
        req = self._stamp(op, sector, count, data, charge_scsi)
        self._pending.append(req)
        if len(self._pending) > self.max_outstanding:
            self.max_outstanding = len(self._pending)
        return req

    # ------------------------------------------------------------------
    # Service
    # ------------------------------------------------------------------

    def service_one(self) -> DiskRequest:
        """Service one pending request, chosen by policy (or by the
        starvation override)."""
        pending = self._pending
        if not pending:
            raise RuntimeError("no pending requests to service")
        chosen = pending[0]
        picks = self._picks
        if len(pending) == 1 or picks - chosen.mark >= self.starvation_bound:
            # Aging override: the backlog drains oldest-first and pass
            # counts freeze, so no request's count ever exceeds the bound
            # (a younger request's count never exceeds an older one's,
            # and counts only grow while the oldest is still under it).
            del pending[0]
        else:
            # A policy pick passes over every other pending request.
            self._picks = picks + 1
            chosen = self.policy.pick(pending, self.disk)
            if chosen is pending[0]:
                del pending[0]
            else:
                pending.remove(chosen)
        chosen.passes = picks - chosen.mark
        return self._service(chosen)

    def _service(self, chosen: DiskRequest) -> DiskRequest:
        """Service one request that has left the queue (or, written at
        depth 1 onto an empty queue, never joined it): the one service
        body."""
        disk = self.disk
        clock = disk.clock
        chosen.service_start = start = clock.now
        try:
            if chosen.op == "read":
                data, breakdown = disk.read(
                    chosen.sector, chosen.count, charge_scsi=chosen.charge_scsi
                )
                chosen.result = data
            elif chosen.block_sectors is not None:
                # Run requests fold their per-block charges straight into
                # the unclaimed accumulator: callers may split one logical
                # run across several requests, and only a single shared
                # accumulation keeps the folded totals bit-identical to
                # the per-block scalar path (float adds don't reassociate).
                breakdown = disk.write_run(
                    chosen.sector,
                    chosen.count,
                    chosen.block_sectors,
                    chosen.data,
                    charge_scsi=chosen.charge_scsi,
                    accumulate=self._unclaimed,
                )
            else:
                breakdown = disk.write(
                    chosen.sector,
                    chosen.count,
                    chosen.data,
                    charge_scsi=chosen.charge_scsi,
                )
                self._unclaimed.add(breakdown)
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
        self.serviced += 1
        service_seconds = completion - start
        self.busy_seconds += service_seconds
        self.service_times.record(service_seconds)
        self.response_times.record(completion - chosen.arrival)
        return chosen

    def drain(self) -> Breakdown:
        """Service everything pending (a write barrier / idle signal);
        returns all unclaimed write breakdowns."""
        while self._pending:
            self.service_one()
        return self.take_breakdown()

    def barrier(self) -> Breakdown:
        """Wait until no request is outstanding (the write-ahead barrier
        the virtual-log layers rely on).  Synchronously that *is* a
        drain; under the engine the disk process owns the queue, and
        servicing it from a caller's frame would bypass engine time."""
        if self._engine is not None:
            raise RuntimeError(
                "synchronous barrier() on an engine-attached scheduler"
            )
        # drain() and take_breakdown(), in this frame: every logical
        # write of a VLD ends in one barrier.
        while self._pending:
            self.service_one()
        out = self._unclaimed
        self._unclaimed = Breakdown()
        return out

    def take_breakdown(self) -> Breakdown:
        """Claim the breakdowns of writes serviced since the last claim."""
        out = self._unclaimed
        self._unclaimed = Breakdown()
        return out

    def discard_pending(self) -> List[DiskRequest]:
        """Drop every pending request without servicing it (power loss:
        queued writes never reached the media)."""
        dropped = self._pending
        self._pending = []
        for req in dropped:
            req.passes = self._picks - req.mark
        return dropped

    # ------------------------------------------------------------------
    # Engine mode: the scheduler as an event process
    # ------------------------------------------------------------------

    def attach_engine(self, engine: EventEngine, name: str = "disk") -> Process:
        """Start this scheduler's disk process on ``engine``, named ``name``.

        From then on hosts enqueue with :meth:`submit` and wait on each
        request's ``completed`` signal; the process services pending
        requests work-conservingly, each service spanning real engine
        time (recorded as a ``"service"`` interval for exact overlap
        accounting).  The disk's own clock becomes a local free-at
        frontier: advanced to engine time before each service, then ahead
        of it while the closed-form mechanics price the operation, with
        the engine catching up at the closed-form completion.
        """
        if self._engine is not None:
            raise RuntimeError(f"scheduler {self.name!r} already attached")
        self._engine = engine
        self.name = name
        self._process = _DiskProcess(engine, self, name)
        return engine.start(self._process)

    def submit(
        self,
        op: str,
        sector: int,
        count: int = 1,
        data: Optional[bytes] = None,
        charge_scsi: bool = True,
    ) -> DiskRequest:
        """Enqueue without servicing (engine mode).  Returns the request;
        its ``completed`` signal fires -- with the request as value -- at
        the service's real completion time.  Refused after :meth:`close`:
        the disk process ends once the queue drains, so nothing would
        service the request."""
        process = self._process
        if process is None:
            raise RuntimeError("submit() requires attach_engine()")
        if self._closed:
            raise RuntimeError(f"submit() to {self.name!r} after close()")
        # _enqueue's work in this frame: one call per host request.
        engine = self._engine
        seq = self._seq
        self._seq = seq + 1
        req = DiskRequest(
            op, sector, count, data, charge_scsi, seq, engine.clock.now
        )
        req.mark = self._picks
        req.completed = Signal(
            engine, process._completed_code + (seq << NUMBER_SHIFT)
        )
        pending = self._pending
        pending.append(req)
        if len(pending) > self.max_outstanding:
            self.max_outstanding = len(pending)
        if process.idle:
            process.wake()
        return req

    def close(self) -> None:
        """End the disk process once its queue drains (run teardown)."""
        self._closed = True
        process = self._process
        if process is not None and process.idle:
            process.wake()


class _DiskProcess(Process):
    """A scheduler's disk process, as a callback state machine.

    One turn (:meth:`_resume`) per service: fire the completion of the
    request whose service just ended, then service the next pending
    request closed-form and wake again at its completion -- or, with
    nothing pending, go idle until :meth:`DiskScheduler.submit` (or
    :meth:`~DiskScheduler.close`) wakes it, and end once closed and
    drained.  It schedules exactly the wake-ups the generator it
    replaced yielded -- ``"<name>.start"``, ``"<name>.submitted-><name>"``
    and ``"<name>.until"``, at the same times and in the same order
    (``tests/sched/reference_disk_process.py`` keeps that generator as
    the oracle) -- without allocating an ``Until`` or dispatching a
    yield per service.  Each wake-up is the engine's one entry shape,
    ``(time, seq, code, self._resume, None)``, pushed here with a name
    code interned at construction.
    """

    __slots__ = (
        "_scheduler",
        "_engine_clock",
        "_disk_clock",
        "_spans",
        "_serving",
        "_submitted_code",
        "_completed_code",
        "idle",
    )

    def __init__(
        self, engine: EventEngine, scheduler: DiskScheduler, name: str
    ) -> None:
        super().__init__(engine, None, name)
        self._scheduler = scheduler
        # The two clocks: the engine's view, and the disk's local
        # frontier (the same object when the disk was built on the
        # engine's clock).
        self._engine_clock = engine.clock
        self._disk_clock = scheduler.disk.clock
        self._spans = engine.intervals.series("service", name)
        #: The request in service, completed at the next turn.
        self._serving: Optional[DiskRequest] = None
        self._submitted_code = engine.names.intern(f"{name}.submitted->{name}")
        #: ``"<name>.req{K}.completed"``, request ``K``'s signal: one
        #: family, so :meth:`DiskScheduler.submit` formats no name.
        self._completed_code = engine.names.family(f"{name}.req", ".completed")
        #: Waiting for a submission: the next one wakes the process.
        self.idle = False

    def wake(self) -> None:
        """Schedule a turn at this instant, after everything already
        scheduled for it (a submission's, or close()'s, wake-up)."""
        self.idle = False
        engine = self.engine
        heappush(
            engine._heap,
            (self._engine_clock.now, engine._seq, self._submitted_code, self._resume, None),
        )
        engine._seq += 1

    def _resume(self, value: object = None) -> None:
        if self.done:
            return
        req = self._serving
        if req is not None:
            self._serving = None
            if req.completed is not None:
                req.completed.fire(req)
        scheduler = self._scheduler
        if not scheduler._pending:
            if scheduler._closed:
                self.done = True
                # The scheduler holds this process: dropping the link
                # back leaves no cycle, so a finished run's engine is
                # freed as soon as its caller lets go of it.
                self._scheduler = None
                self.terminated.fire(None)
            else:
                self.idle = True
            return
        # Catch the local frontier up to global time, service
        # closed-form (the disk clock runs ahead), then wake at the
        # completion so engine time matches it.
        start = self._engine_clock.now
        disk_clock = self._disk_clock
        if disk_clock.now < start:
            disk_clock.advance_to(start)
        self._serving = scheduler.service_one()
        end = disk_clock.now
        if end > start:
            self._spans.append((start, end))
        # At the absolute completion, not after a delay: `now + (end -
        # now)` need not equal `end` in floating point, and the depth-1
        # identity demands engine time land bit-exactly on it.  (When
        # the disk clock *is* the engine clock, `end` is already now.)
        engine = self.engine
        heappush(engine._heap, (end, engine._seq, self._until_code, self._resume, None))
        engine._seq += 1
