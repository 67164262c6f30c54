"""Composable block-device interposers: tracing, metrics, fault injection.

Any :class:`~repro.blockdev.interface.BlockDevice` can be wrapped by an
:class:`InterposedDevice`, which forwards the whole device interface to an
inner device.  Wrappers compose::

    TracingDevice(MetricsDevice(FaultDevice(RegularDisk(disk), plan)))

and are **transparent**: a wrapped device returns byte-identical data and
identical latency breakdowns (the interposers consume zero simulated
time), so they can be left in a stack without perturbing an experiment.
Every member of the :class:`BlockDevice` contract -- the five I/O calls,
``trim``, ``idle``, the ``power_down`` / ``crash`` / ``recover``
lifecycle and ``clock`` -- is forwarded explicitly, and the six
operations cross a wrapper in one place, :meth:`InterposedDevice._call`:
it is the one hook each interposer overrides, so an observer sees a
``trim`` exactly as it sees a write, and the fault layer perturbs every
operation in one body.  Only device-specific surface (``device.disk``,
``device.vlog``, ``device.utilization``) is reached by attribute
fall-through.

Three concrete layers:

* :class:`TracingDevice` -- structured per-operation event records (op,
  lba, count, latency breakdown, simulated timestamp) into a bounded ring
  buffer, optionally mirrored line by line to a JSONL sink;
* :class:`MetricsDevice` -- op/block counters and per-component device
  time, plus host time inferred from the simulated-clock gaps between
  device operations: what the ``--metrics`` summary line prints (the
  figures take their breakdowns from the operations themselves);
* :class:`FaultDevice` -- deterministic, seeded injection of torn writes,
  dropped writes, read errors, crash-after-N-operations and a fail-slow
  window; each op's fail-slow surplus is its ``last_slow_extra``, which
  the observers above read after the op.

For faults *below* the logical layer (killing a Virtual Log Disk in the
middle of its internal write sequence, a transaction before its commit
record, a recovery in the middle of its repair, an NVWal between commit
and destage), one :class:`FaultPlane` installs on the media -- the raw
:class:`~repro.disk.disk.Disk` and an
:class:`~repro.blockdev.nvm.NVMDevice` -- and drops the power at the
N-th persistence event of a kind (a sector run, an NVM record, the NVM
superblock), before, torn inside or after it: the crash-point
methodology the recovery tests sweep.  It also holds the per-sector
media faults the disk's reads meet, and a fail-slow window over the
disk's services.

:func:`build_device_stack` is the single factory every consumer builds
its stack through (the harness and the examples).
"""

from __future__ import annotations

import json
import math
import random
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterator, Optional, Set, Tuple, Type

from repro.blockdev.interface import BlockDevice
from repro.blockdev.regular import RegularDisk
from repro.sim.clock import SimClock
from repro.sim.stats import COMPONENTS, Breakdown

if TYPE_CHECKING:  # repro.vlog sits above this module in the layer order
    from repro.vlog.recovery import RecoveryOutcome


class DeviceFault(Exception):
    """Base class for injected device failures.

    Carries structured context so that observers (tracing, metrics, the
    retry machinery) can record *what* failed without parsing message
    strings: the logical operation, the logical block / physical sector it
    targeted, the run length, and -- when a retry policy is replaying the
    operation -- which attempt this was.  ``shard`` identifies the fault
    domain inside a sharded volume (``None`` for a single-device stack);
    the volume layer stamps it onto faults escaping a shard, so torture
    artifacts and retry logs name the failing domain.  All fields are
    optional; raisers fill in what they know.
    """

    def __init__(
        self,
        message: str = "",
        *,
        op: Optional[str] = None,
        lba: Optional[int] = None,
        sector: Optional[int] = None,
        count: Optional[int] = None,
        attempt: Optional[int] = None,
        shard: Optional[int] = None,
    ) -> None:
        super().__init__(message)
        self.op = op
        self.lba = lba
        self.sector = sector
        self.count = count
        self.attempt = attempt
        self.shard = shard

    def context(self) -> Dict[str, object]:
        """The non-``None`` structured fields, for trace records."""
        fields = {
            "op": self.op,
            "lba": self.lba,
            "sector": self.sector,
            "count": self.count,
            "attempt": self.attempt,
            "shard": self.shard,
        }
        return {k: v for k, v in fields.items() if v is not None}


class DeviceCrashed(DeviceFault):
    """The device lost power mid-operation; volatile state is gone.

    The disk image below the crash point survives (possibly with a torn
    final write); callers model recovery by invoking the wrapped device's
    ``crash()``/``recover()`` machinery.
    """


class InjectedReadError(DeviceFault):
    """An unrecoverable media error on a read, injected by a fault plan."""


# ======================================================================
# The wrapper base
# ======================================================================

class InterposedDevice(BlockDevice):
    """A block device that forwards the whole contract to an inner device.

    The five I/O calls and ``trim`` cross the wrapper through
    :meth:`_call`, the one hook an observer or the fault layer
    overrides; ``idle``, the lifecycle and ``clock`` forward explicitly.
    The base class is a pure pass-through.  Other attribute access falls
    through to the inner device, which keeps device-specific surface
    (``.disk``, ``.vlog``, ``.utilization``, ...) reachable through a
    stack of wrappers.
    """

    def __init__(self, inner: BlockDevice) -> None:
        self.inner = inner

    # ``block_size``/``num_blocks``/``clock`` are declared (not set) on
    # BlockDevice, so they must delegate explicitly rather than via
    # ``__getattr__``.
    @property
    def block_size(self) -> int:  # type: ignore[override]
        return self.inner.block_size

    @property
    def num_blocks(self) -> int:  # type: ignore[override]
        return self.inner.num_blocks

    @property
    def clock(self) -> SimClock:  # type: ignore[override]
        return self.inner.clock

    def __getattr__(self, name: str):
        if name == "inner":  # guard: __init__ not yet run
            raise AttributeError(name)
        return getattr(self.inner, name)

    # -- the BlockDevice interface, delegated --------------------------

    def _call(self, op: str, lba: int, count: int, call, *args):
        """The one place an operation crosses this wrapper: ``call`` is
        the inner device's bound method, ``op``/``lba``/``count`` what an
        observer records about it."""
        return call(*args)

    def read_block(self, lba: int) -> Tuple[bytes, Breakdown]:
        return self._call("read", lba, 1, self.inner.read_block, lba)

    def write_block(self, lba: int, data: Optional[bytes] = None) -> Breakdown:
        return self._call("write", lba, 1, self.inner.write_block, lba, data)

    def read_blocks(self, lba: int, count: int) -> Tuple[bytes, Breakdown]:
        return self._call(
            "read", lba, count, self.inner.read_blocks, lba, count
        )

    def write_blocks(
        self, lba: int, count: int, data: Optional[bytes] = None
    ) -> Breakdown:
        return self._call(
            "write", lba, count, self.inner.write_blocks, lba, count, data
        )

    def write_partial(self, lba: int, offset: int, data: bytes) -> Breakdown:
        return self._call(
            "write_partial", lba, 1,
            self.inner.write_partial, lba, offset, data,
        )

    def trim(self, lba: int, count: int = 1) -> Breakdown:
        return self._call("trim", lba, count, self.inner.trim, lba, count)

    def idle(self, seconds: float) -> None:
        self.inner.idle(seconds)

    def flush(self) -> Breakdown:
        return self.inner.flush()

    def power_down(self) -> Breakdown:
        return self.inner.power_down()

    def crash(self) -> None:
        self.inner.crash()

    def recover(self) -> RecoveryOutcome:
        return self.inner.recover()

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.inner!r})"


def layers(device: BlockDevice) -> Iterator[BlockDevice]:
    """Yield every layer of a device stack, outermost first."""
    while True:
        yield device
        if not isinstance(device, InterposedDevice):
            return
        device = device.inner


def core_device(device: BlockDevice) -> BlockDevice:
    """The innermost (unwrapped) device of a stack."""
    for layer in layers(device):
        pass
    return layer


def find_layer(device: BlockDevice, cls: Type) -> Optional[BlockDevice]:
    """The outermost layer of type ``cls`` in a stack, or ``None``."""
    for layer in layers(device):
        if isinstance(layer, cls):
            return layer
    return None


class ObservingDevice(InterposedDevice):
    """An interposer that observes completed operations without changing
    them.  Subclasses implement :meth:`_note`; an observer that is not
    wanted is not in the stack (:func:`build_device_stack` with no flag
    returns the bare core).

    Operations that *fail* (the wrapped device raises a
    :class:`DeviceFault` mid-operation) are routed to :meth:`_note_fault`
    before the exception propagates, so observers never lose the event or
    leave a half-recorded operation behind.

    A slowed op reaches an observer as an ordinary completion with a
    stretched breakdown; the fault layer below (if any) names the stretch
    in its ``last_slow_extra``, which :meth:`_call` hands to :meth:`_note`.
    """

    def __init__(self, inner: BlockDevice) -> None:
        super().__init__(inner)
        #: The fault layer whose per-op surplus :meth:`_note` receives
        #: (``None`` without one).
        self._fault: Optional[FaultDevice] = find_layer(inner, FaultDevice)

    def _note(
        self,
        op: str,
        lba: int,
        count: int,
        breakdown: Breakdown,
        start: float,
        slow_extra: float,
    ) -> None:
        raise NotImplementedError  # pragma: no cover - abstract hook

    def _note_fault(
        self,
        op: str,
        lba: int,
        count: int,
        fault: DeviceFault,
        start: float,
    ) -> None:
        pass

    def _call(self, op: str, lba: int, count: int, call, *args):
        start = self.clock.now
        try:
            result = call(*args)
        except DeviceFault as fault:
            self._note_fault(op, lba, count, fault, start)
            raise
        # A read answers (data, breakdown); every other op its breakdown.
        breakdown = result[1] if op == "read" else result
        fault_layer = self._fault
        slow_extra = 0.0 if fault_layer is None else fault_layer.last_slow_extra
        self._note(op, lba, count, breakdown, start, slow_extra)
        return result

    def idle(self, seconds: float) -> None:
        self.inner.idle(seconds)
        self._note_idle()

    def _note_idle(self) -> None:
        pass


# ======================================================================
# Tracing
# ======================================================================

@dataclass
class TraceEvent:
    """One logical device operation, as the host saw it.

    ``fault`` names the :class:`DeviceFault` subclass when the operation
    failed instead of completing (``fault_context`` carries its structured
    fields); the breakdown is then empty, since the device never reported
    a latency for an operation it aborted.  ``slow_extra`` is the exact
    fail-slow surplus the fault layer injected into this op, in seconds
    (already inside the breakdown; recorded so slow ops are identifiable).
    """

    seq: int
    op: str
    lba: int
    count: int
    start: float
    breakdown: Breakdown
    fault: Optional[str] = None
    fault_context: Optional[Dict[str, object]] = None
    slow_extra: float = 0.0

    @property
    def elapsed(self) -> float:
        return self.breakdown.total

    def as_dict(self) -> Dict[str, object]:
        record: Dict[str, object] = {
            "seq": self.seq,
            "op": self.op,
            "lba": self.lba,
            "count": self.count,
            "start": self.start,
            "elapsed": self.elapsed,
            "breakdown": self.breakdown.as_dict(),
        }
        if self.fault is not None:
            record["fault"] = self.fault
            record["fault_context"] = self.fault_context or {}
        if self.slow_extra:
            record["slow_extra"] = self.slow_extra
        return record


class TracingDevice(ObservingDevice):
    """Records a structured event per operation into a ring buffer.

    Args:
        inner: The wrapped device.
        capacity: Ring-buffer depth (oldest events are evicted).
        sink: Optional JSONL destination -- a path (opened lazily in
            append mode, line-buffered so each record lands whole and in
            order even beside another tracer on the same path) or any
            object with a ``write`` method.
    """

    def __init__(
        self,
        inner: BlockDevice,
        capacity: int = 4096,
        sink: Optional[object] = None,
    ) -> None:
        super().__init__(inner)
        if capacity <= 0:
            raise ValueError("trace capacity must be positive")
        self.events: deque = deque(maxlen=capacity)
        self.total_events = 0
        self._sink_spec = sink
        self._sink = sink if sink is None or hasattr(sink, "write") else None
        self._owns_sink = False

    def _note(self, op, lba, count, breakdown, start, slow_extra) -> None:
        self._emit(TraceEvent(
            seq=self.total_events,
            op=op,
            lba=lba,
            count=count,
            start=start,
            breakdown=breakdown.copy(),
            slow_extra=slow_extra,
        ))

    def _note_fault(self, op, lba, count, fault, start) -> None:
        # A failed operation is still an event the host saw; record it
        # instead of letting the unwinding exception erase it from the
        # trace (the classic "the log ends right before the interesting
        # part" failure mode).
        self._emit(TraceEvent(
            seq=self.total_events,
            op=op,
            lba=lba,
            count=count,
            start=start,
            breakdown=Breakdown(),
            fault=type(fault).__name__,
            fault_context=fault.context(),
        ))

    def _emit(self, event: TraceEvent) -> None:
        self.total_events += 1
        self.events.append(event)
        sink = self._open_sink()
        if sink is not None:
            sink.write(json.dumps(event.as_dict()) + "\n")

    def _open_sink(self):
        if self._sink is None and self._sink_spec is not None:
            self._sink = open(str(self._sink_spec), "a", buffering=1)
            self._owns_sink = True
        return self._sink

    def close(self) -> None:
        """Flush and close a path-opened sink (no-op otherwise)."""
        if self._sink is not None:
            if hasattr(self._sink, "flush"):
                self._sink.flush()
            if self._owns_sink:
                self._sink.close()
                self._sink = None
                self._owns_sink = False


# ======================================================================
# Metrics
# ======================================================================

class MetricsDevice(ObservingDevice):
    """Counts operations and sums latencies per component.

    Beyond the device-visible components (``scsi``, ``transfer``,
    ``locate``), host processing time is inferred from the simulated
    clock: any time that passes *between* two device operations (and is
    not declared idle via :meth:`idle`) must have been spent above the
    device -- system call, file system code, driver.  That inferred time
    is the ``other`` component of the ``--metrics`` summary.

    The inference is queue-aware: once the wrapped device runs a request
    scheduler with outstanding requests, the time between two completions
    is the *device* draining its queue, not host compute.  Gaps that open
    while requests were outstanding are therefore accumulated separately
    (``overlapped_seconds``) instead of being double-counted as host time,
    and the deepest queue observed after an operation is
    ``max_outstanding``.

    The layer keeps what :meth:`summary` prints and nothing else.
    Per-request service distributions live where requests are serviced
    (:class:`~repro.sched.scheduler.DiskScheduler`), and the figures
    take their breakdowns from the operations that paid them.
    """

    def __init__(self, inner: BlockDevice) -> None:
        super().__init__(inner)
        self.reset()

    def reset(self) -> None:
        self.ops: Dict[str, int] = {}
        self.blocks: Dict[str, int] = {}
        #: Device seconds per component, summed over completed ops.
        self.device_time = Breakdown()
        #: Operations the wrapped device aborted with a DeviceFault, per
        #: op name, and the simulated time those aborted operations
        #: consumed before failing.  Kept apart from the completed-op
        #: counters so injected faults cannot skew them.
        self.faulted: Dict[str, int] = {}
        self.faulted_seconds = 0.0
        #: Completed ops a fault layer stretched with a fail-slow window,
        #: per op name, and the injected surplus seconds.  The surplus is
        #: already inside the op's breakdown (honest latency), so these
        #: sit beside the faulted accounting for attribution only --
        #: host_seconds is never inflated by them.
        self.slowed: Dict[str, int] = {}
        self.slow_seconds = 0.0
        self.host_seconds = 0.0
        #: Clock gaps that opened while the device still had queued
        #: requests outstanding: device overlap, not host compute.
        self.overlapped_seconds = 0.0
        #: The deepest queue observed after an operation.
        self.max_outstanding = 0
        self._last_end = self.clock.now
        self._last_outstanding = self._outstanding_now()

    def _outstanding_now(self) -> int:
        """Requests currently queued below us (0 for unscheduled devices).

        Duck-typed: any wrapped device exposing a ``scheduler`` with an
        ``outstanding`` count participates; plain devices never overlap.
        """
        scheduler = getattr(self.inner, "scheduler", None)
        if scheduler is None:
            return 0
        return int(getattr(scheduler, "outstanding", 0))

    def _attribute_gap(self, start: float) -> None:
        if start > self._last_end:
            gap = start - self._last_end
            if self._last_outstanding > 0:
                self.overlapped_seconds += gap
            else:
                self.host_seconds += gap

    def _sample_queue(self) -> None:
        depth = self._outstanding_now()
        self._last_outstanding = depth
        if depth > self.max_outstanding:
            self.max_outstanding = depth

    def _note(self, op, lba, count, breakdown, start, slow_extra) -> None:
        self.ops[op] = self.ops.get(op, 0) + 1
        self.blocks[op] = self.blocks.get(op, 0) + count
        self.device_time.add(breakdown)
        if slow_extra:
            self.slowed[op] = self.slowed.get(op, 0) + 1
            self.slow_seconds += slow_extra
        self._attribute_gap(start)
        self._last_end = self.clock.now
        self._sample_queue()

    def _note_fault(self, op, lba, count, fault, start) -> None:
        # Without this hook a mid-operation fault left the op half
        # recorded: no counter, and -- worse -- a stale ``_last_end``, so
        # the *next* operation's clock gap silently absorbed the faulted
        # op's device time into ``host_seconds``.  Record the event in its own bucket and
        # advance the gap origin past whatever time the aborted operation
        # consumed.
        self.faulted[op] = self.faulted.get(op, 0) + 1
        self._attribute_gap(start)
        end = self.clock.now
        if end > start:
            self.faulted_seconds += end - start
        self._last_end = end
        self._last_outstanding = self._outstanding_now()

    def _note_idle(self) -> None:
        # Idle time is neither device nor host work; advance the gap
        # origin past it so it is not misread as host processing.
        self._last_end = self.clock.now
        self._last_outstanding = self._outstanding_now()

    # -- reporting -----------------------------------------------------

    def component_totals(self, include_host: bool = True) -> Dict[str, float]:
        """Seconds per component, ``other`` inferred from clock gaps."""
        totals = self.device_time.as_dict()
        if include_host:
            totals["other"] += self.host_seconds
        return totals

    def component_fractions(self, include_host: bool = True) -> Dict[str, float]:
        """Each component as a fraction of total time (the summary's
        bracketed percentages)."""
        totals = self.component_totals(include_host)
        whole = sum(totals.values())
        if whole <= 0.0:
            return {name: 0.0 for name in COMPONENTS}
        return {name: totals[name] / whole for name in COMPONENTS}

    def device_seconds(self) -> float:
        return self.device_time.total

    def summary(self) -> str:
        """One-line human-readable summary (latencies in milliseconds)."""
        ops = " ".join(
            f"{op}={self.ops[op]}({self.blocks[op]}blk)"
            for op in sorted(self.ops)
        )
        fractions = self.component_fractions()
        parts = " ".join(
            f"{k}={v * 100:.0f}%" for k, v in fractions.items()
        )
        line = (
            f"ops[{ops}] device={self.device_seconds() * 1e3:.3f}ms "
            f"host={self.host_seconds * 1e3:.3f}ms [{parts}]"
        )
        if self.max_outstanding:
            line += (
                f" queue[max={self.max_outstanding}"
                f" overlap={self.overlapped_seconds * 1e3:.3f}ms]"
            )
        if self.faulted:
            faults = " ".join(
                f"{op}={self.faulted[op]}" for op in sorted(self.faulted)
            )
            line += (
                f" faulted[{faults}]"
                f"={self.faulted_seconds * 1e3:.3f}ms"
            )
        if self.slowed:
            slows = " ".join(
                f"{op}={self.slowed[op]}" for op in sorted(self.slowed)
            )
            line += (
                f" slowed[{slows}]"
                f"={self.slow_seconds * 1e3:.3f}ms"
            )
        return line


# ======================================================================
# Fault injection
# ======================================================================

@dataclass(frozen=True)
class FaultPlan:
    """A deterministic, seeded description of what to break.

    Rates are per-operation probabilities drawn from a private
    ``random.Random(seed)`` stream, so a plan misbehaves identically on
    every run.  ``crash_after_ops`` counts host-visible operations
    (reads, writes and trims, not idle); the N-th operation raises
    :class:`DeviceCrashed` without reaching the inner device.

    The *fail-slow* family models a degraded-but-working device: every
    operation inside a window of host-visible ops takes
    ``slow_factor`` times its normal latency (the surplus charged as
    ``locate`` -- a stalling mechanism, not a bigger transfer).  The
    window starts at op ``slow_after_ops`` and lasts
    ``slow_duration_ops`` ops (open-ended when ``None``); with
    ``slow_factor > 1`` but no explicit onset, the onset and duration
    are drawn from the plan's seed, so a seeded plan gets a seeded
    window.
    """

    seed: int = 0
    read_error_rate: float = 0.0
    torn_write_rate: float = 0.0
    dropped_write_rate: float = 0.0
    crash_after_ops: Optional[int] = None
    slow_factor: float = 1.0
    slow_after_ops: Optional[int] = None
    slow_duration_ops: Optional[int] = None

    def __post_init__(self) -> None:
        for name in ("read_error_rate", "torn_write_rate",
                     "dropped_write_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        if self.crash_after_ops is not None and self.crash_after_ops <= 0:
            raise ValueError("crash_after_ops must be positive")
        if not 1.0 <= self.slow_factor < math.inf:
            raise ValueError("slow_factor must be a finite number at least 1")
        if self.slow_after_ops is not None and self.slow_after_ops <= 0:
            raise ValueError("slow_after_ops must be positive")
        if self.slow_duration_ops is not None and self.slow_duration_ops <= 0:
            raise ValueError("slow_duration_ops must be positive")

    def slow_window(self) -> Optional[Tuple[int, Optional[int]]]:
        """The fail-slow window as ``(first_op, end_op)`` in 1-based
        host-visible op ordinals (``end_op`` exclusive, ``None`` = open),
        or ``None`` when the plan never slows.  Unspecified bounds are
        drawn deterministically from the plan's seed -- the "seeded
        onset/duration" contract."""
        if self.slow_factor <= 1.0:
            return None
        if self.slow_after_ops is not None:
            first = self.slow_after_ops
            rng = None
        else:
            rng = random.Random(self.seed ^ 0x510B)
            first = rng.randrange(1, 33)
        if self.slow_duration_ops is not None:
            return first, first + self.slow_duration_ops
        if self.slow_after_ops is None:
            assert rng is not None
            return first, first + rng.randrange(16, 129)
        return first, None

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Build a plan from ``key=value`` pairs, e.g.
        ``"crash_after=40,torn=0.05,drop=0.02,read_err=0.01,seed=7"``
        or ``"slow_factor=8,slow_after=20,slow_ops=60"``."""
        keys = {
            "seed": ("seed", int),
            "read_err": ("read_error_rate", float),
            "torn": ("torn_write_rate", float),
            "drop": ("dropped_write_rate", float),
            "crash_after": ("crash_after_ops", int),
            "slow_factor": ("slow_factor", float),
            "slow_after": ("slow_after_ops", int),
            "slow_ops": ("slow_duration_ops", int),
        }
        kwargs = {}
        for pair in filter(None, (p.strip() for p in spec.split(","))):
            key, _, value = pair.partition("=")
            if key not in keys or not value:
                raise ValueError(
                    f"bad fault spec {pair!r}; known keys: "
                    f"{', '.join(sorted(keys))}"
                )
            name, convert = keys[key]
            kwargs[name] = convert(value)
        return cls(**kwargs)


class FaultDevice(InterposedDevice):
    """Injects faults at the logical-block layer, per a :class:`FaultPlan`.

    * **read error**: the read raises :class:`InjectedReadError` before
      touching the inner device;
    * **torn write**: only a prefix of the written blocks reaches the
      inner device; the caller is told the write succeeded (the classic
      power-loss tear, discovered only on later reads);
    * **dropped write**: nothing reaches the inner device at all (a
      lying write cache);
    * **crash after N ops**: the N-th host-visible operation raises
      :class:`DeviceCrashed`;
    * **fail-slow window**: operations inside the plan's slow window
      complete correctly but take ``slow_factor`` times as long -- the
      surplus is charged to the breakdown's ``locate`` component and the
      simulated clock advances by it, so the host genuinely waits.

    Every operation meets these in one place, :meth:`_call`.  A request
    the device would refuse (blocks outside it, a data buffer of the
    wrong size, a partial write leaving its block) is refused there
    first: it is neither counted nor faulted.

    A hedging layer above (the sharded volume) can bound the surplus a
    single operation may suffer by setting :attr:`hedge_cap` -- the model
    of a duplicate request racing the slow one: past the cap, the hedge
    wins and the caller stops paying for the stall.
    """

    def __init__(self, inner: BlockDevice, plan: FaultPlan) -> None:
        super().__init__(inner)
        self.plan = plan
        self.rng = random.Random(plan.seed)
        self.ops_seen = 0
        self.reads_failed = 0
        self.writes_torn = 0
        self.writes_dropped = 0
        self.crashed = False
        self._slow_window = plan.slow_window()
        self.ops_slowed = 0
        self.slow_extra_seconds = 0.0
        #: The fail-slow surplus (seconds) the last operation suffered.
        self.last_slow_extra = 0.0
        #: Upper bound (seconds) on the per-op slow surplus; ``None``
        #: means uncapped.  Set transiently by hedged readers.
        self.hedge_cap: Optional[float] = None

    def slow_active(self) -> bool:
        """Whether the *current* op (the one :meth:`_tick` just counted)
        falls inside the plan's fail-slow window."""
        if self._slow_window is None:
            return False
        first, end = self._slow_window
        if self.ops_seen < first:
            return False
        return end is None or self.ops_seen < end

    def _maybe_slow(self, breakdown: Breakdown) -> Breakdown:
        """Stretch a completed op's latency by the plan's slow factor.

        The surplus is charged as ``locate`` (the device is stalling, not
        transferring more data) and pushed onto the simulated clock, so
        the caller's elapsed time and the breakdown stay equal -- metrics
        layers above see an honest, if slow, operation.
        """
        if not self.slow_active():
            return breakdown
        extra = breakdown.total * (self.plan.slow_factor - 1.0)
        if self.hedge_cap is not None:
            extra = min(extra, self.hedge_cap)
        if extra <= 0.0:
            return breakdown
        breakdown.charge("locate", extra)
        self.clock.advance(extra)
        self.ops_slowed += 1
        self.slow_extra_seconds += extra
        self.last_slow_extra = extra
        return breakdown

    def _tick(self, op: str, lba: int, count: int) -> None:
        self.last_slow_extra = 0.0
        if self.crashed:
            raise DeviceCrashed(
                "device already crashed", op=op, lba=lba, count=count
            )
        self.ops_seen += 1
        crash_at = self.plan.crash_after_ops
        if crash_at is not None and self.ops_seen >= crash_at:
            self.crashed = True
            raise DeviceCrashed(
                f"injected crash at operation {self.ops_seen}",
                op=op,
                lba=lba,
                count=count,
            )

    def _fire(self, rate: float) -> bool:
        return rate > 0.0 and self.rng.random() < rate

    def _call(self, op: str, lba: int, count: int, call, *args):
        self.check_lba(lba, count)
        if op == "write":
            payload = self.check_data(args[-1], count)
        elif op == "write_partial":
            self.check_partial(lba, *args[1:])
        self._tick(op, lba, count)
        plan = self.plan
        if op == "read":
            if self._fire(plan.read_error_rate):
                self.reads_failed += 1
                raise InjectedReadError(
                    f"injected media error reading blocks [{lba}, {lba + count})",
                    op=op,
                    lba=lba,
                    count=count,
                )
            data, breakdown = call(*args)
            return data, self._maybe_slow(breakdown)
        if op != "trim":
            if self._fire(plan.dropped_write_rate):
                self.writes_dropped += 1
                return Breakdown()
            if self._fire(plan.torn_write_rate):
                self.writes_torn += 1
                # A sub-block write is a single sector run; tearing it
                # degenerates to dropping it.
                if op == "write_partial":
                    return Breakdown()
                keep = self.rng.randrange(count)  # 0..count-1 blocks survive
                if keep == 0:
                    return Breakdown()
                return self._maybe_slow(self.inner.write_blocks(
                    lba, keep, payload[: keep * self.block_size]
                ))
        return self._maybe_slow(call(*args))

    def recover(self) -> RecoveryOutcome:
        """The restart after a crash: the injected power loss is over,
        so the layer serves again once the device beneath has recovered."""
        self.crashed = False
        return self.inner.recover()


#: The persistence events a :class:`FaultPlane` counts, each reported at
#: its one site: ``Disk.write``, ``NVWal._append``, ``NVWal._reset_log``.
EVENT_KINDS = ("sector-run", "nvm-record", "nvm-superblock")

#: What of the event the crash lands on persists: nothing, the first
#: half of its units, or all of it (then power drops before the ack).
CRASH_VARIANTS = ("before", "torn", "after")

_EVENT_NAMES = dict(zip(EVENT_KINDS, (
    "physical write", "NVM record", "NVM superblock write")))


class FaultPlane:
    """One fault model under a whole stack: power loss at a named
    persistence event, and per-sector media faults on the disk's reads.

    ``plane.install(disk, nvm)`` sets each medium's ``faults``, so a
    crash lands below every logical layer: inside a Virtual Log Disk's
    data-write / map-append sequence, inside a recovery, or between an
    NVWal commit and its destage.  Events are counted per kind
    (``counts``); ``crash_at = (kind, n)`` drops the power at the
    ``n``-th, and ``variant`` says what of it persists: nothing, half
    its units (sectors of a run, bytes of an NVM record), or all.  The
    site lays that prefix down through its own store path and raises
    :meth:`power_lost`.  The crash latches: every later persistence
    event and disk read raises :class:`DeviceCrashed` until another
    plane is installed.

    Media degradation is modelled at sector granularity:

    * ``flaky_sectors`` maps sector numbers to per-attempt failure
      probabilities -- a *transient* media error the drive's read-retry
      machinery can recover from (each replay re-rolls the seeded RNG);
    * ``bad_sectors`` fail every read that touches them -- the grown
      defects a resilience layer must quarantine and remap around;
    * ``read_error_rate`` remains the uncorrelated transient noise floor.

    Writes never fault on degraded media (grown defects here are
    discovered on read, the common ECC story).

    A limping disk is a fail-slow window over its services, reads
    included: services ``slow_after_ops + 1`` to ``slow_after_ops +
    slow_duration_ops`` (open-ended when ``None``) take ``slow_factor``
    times as long, the surplus on the clock but not in the breakdown or
    the busy time (:meth:`service_ended`).
    """

    def __init__(
        self,
        crash_at: Optional[Tuple[str, int]] = None,
        variant: str = "torn",
        read_error_rate: float = 0.0,
        seed: int = 0,
        bad_sectors: Optional[Set[int]] = None,
        flaky_sectors: Optional[Dict[int, float]] = None,
        slow_factor: float = 1.0,
        slow_after_ops: int = 0,
        slow_duration_ops: Optional[int] = None,
    ) -> None:
        if crash_at is not None and (
            crash_at[0] not in EVENT_KINDS or crash_at[1] <= 0
        ):
            raise ValueError(f"no such crash point {crash_at!r}")
        if variant not in CRASH_VARIANTS:
            raise ValueError(f"unknown crash variant {variant!r}")
        # A chained comparison, so NaN (which fails both) is refused too.
        if not 1.0 <= slow_factor < math.inf:
            raise ValueError("slow factor must be a finite number >= 1.0")
        if slow_after_ops < 0:
            raise ValueError("after_ops must be non-negative")
        if slow_duration_ops is not None and slow_duration_ops <= 0:
            raise ValueError("duration_ops must be positive")
        self.crash_at = crash_at
        self.variant = variant
        self.read_error_rate = read_error_rate
        self.rng = random.Random(seed)
        self.bad_sectors: Set[int] = set(bad_sectors or ())
        self.flaky_sectors: Dict[int, float] = dict(flaky_sectors or {})
        self.counts: Dict[str, int] = dict.fromkeys(EVENT_KINDS, 0)
        self.read_errors_raised = 0
        self.crashed = False
        self.slow_factor = slow_factor
        self.slow_after_ops = slow_after_ops
        self.slow_duration_ops = slow_duration_ops
        self.services = self.ops_slowed = 0  # services ended; slowed ones
        self.slow_extra_seconds = 0.0
        #: ``(first_service_start, last_completion)`` of slowed services.
        self.slow_span: Optional[Tuple[float, float]] = None

    def install(self, *media) -> "FaultPlane":
        """Hang the plane on each medium (a ``Disk``, an ``NVMDevice``)."""
        for medium in media:
            medium.faults = self
        return self

    def persists(self, kind: str, units: int) -> Optional[int]:
        """Count one persistence event of ``kind`` spanning ``units``.
        ``None``: it proceeds.  Otherwise the power drops here, and the
        number is how many leading units persist first."""
        if self.crashed:
            raise DeviceCrashed(f"power already lost: {kind} refused")
        count = self.counts[kind] + 1
        self.counts[kind] = count
        if self.crash_at != (kind, count):
            return None
        self.crashed = True
        if self.variant == "before":
            return 0
        return units // 2 if self.variant == "torn" else units

    def power_lost(self, kind: str, where: str, **context) -> DeviceCrashed:
        """The fault the site raises once the surviving prefix is down."""
        return DeviceCrashed(
            f"injected power loss at {_EVENT_NAMES[kind]} "
            f"{self.counts[kind]} ({where}, {self.variant})",
            **context,
        )

    def service_ended(self, clock: SimClock, start: float) -> None:
        """A disk service begun at ``start`` just ended on ``clock``:
        inside the fail-slow window, stretch it by advancing the clock."""
        self.services = ordinal = self.services + 1
        after, duration = self.slow_after_ops, self.slow_duration_ops
        if ordinal <= after or (duration is not None and ordinal > after + duration):
            return
        extra = (clock.now - start) * (self.slow_factor - 1.0)
        if extra > 0.0:
            clock.advance(extra)
            self.ops_slowed += 1
            self.slow_extra_seconds += extra
            first = start if self.slow_span is None else self.slow_span[0]
            self.slow_span = (first, clock.now)

    def before_read(self, sector: int, count: int) -> None:
        if self.crashed:
            raise DeviceCrashed(
                "power already lost: read refused",
                op="read", sector=sector, count=count,
            )
        run = range(sector, sector + count)
        if self.bad_sectors:
            for s in run:
                if s in self.bad_sectors:
                    self.read_errors_raised += 1
                    raise InjectedReadError(
                        f"unrecoverable media error at sector {s}",
                        op="read",
                        sector=s,
                        count=count,
                    )
        if self.flaky_sectors:
            for s in run:
                rate = self.flaky_sectors.get(s)
                if rate is not None and self.rng.random() < rate:
                    self.read_errors_raised += 1
                    raise InjectedReadError(
                        f"transient media error at sector {s}",
                        op="read",
                        sector=s,
                        count=count,
                    )
        if self.read_error_rate > 0.0 and (
            self.rng.random() < self.read_error_rate
        ):
            self.read_errors_raised += 1
            raise InjectedReadError(
                f"injected media error at sector {sector}",
                op="read",
                sector=sector,
                count=count,
            )


# ======================================================================
# The stack factory
# ======================================================================

def build_device_stack(
    disk,
    device_type: str = "regular",
    *,
    trace: object = False,
    metrics: bool = False,
    faults: Optional[FaultPlan] = None,
    nvm=None,
    **device_kwargs,
) -> BlockDevice:
    """Build a core device over ``disk`` and wrap it with interposers.

    ``device_type`` selects the core: ``"regular"`` (update-in-place
    identity mapping) or ``"vld"`` (the Virtual Log Disk).  ``nvm``
    threads an NVM write-ahead tier between the core and the
    interposers: pass ``True`` for the default NVDIMM spec, a part name
    from :data:`~repro.blockdev.nvm.NVM_SPECS`, or an
    :class:`~repro.blockdev.nvm.NVMSpec`.  The keyword flags are the one
    way to ask for interposers; ``trace`` is ``False``, ``True`` (the
    in-memory ring only) or a JSONL sink for :class:`TracingDevice` (a
    path or a writer).  Layer order, innermost out: faults (so
    observers see the faulty behaviour the host sees), then metrics,
    then tracing.  With no flag set the core is returned untouched --
    the disabled stack costs nothing.  This is the single entry point
    the harness and the examples build stacks through.
    """
    if device_type == "regular":
        device: BlockDevice = RegularDisk(disk, **device_kwargs)
    elif device_type == "vld":
        from repro.vlog.vld import VirtualLogDisk

        device = VirtualLogDisk(disk, **device_kwargs)
    else:
        raise ValueError(f"unknown device type {device_type!r}")
    if nvm:
        from repro.blockdev.nvm import NVM_SPECS, NVMSpec
        from repro.nvm import NVWal

        if nvm is True:
            spec = None
        elif isinstance(nvm, NVMSpec):
            spec = nvm
        else:
            spec = NVM_SPECS[nvm]
        device = NVWal(device, spec=spec)
    if faults is not None:
        device = FaultDevice(device, faults)
    if metrics:
        device = MetricsDevice(device)
    if trace:
        device = TracingDevice(device, sink=None if trace is True else trace)
    return device
