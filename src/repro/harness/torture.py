"""Composed-fault torture harness for the virtual log disk.

:func:`torture_point` (one VLD stack) and :func:`volume_torture_point`
(a sharded volume) are *pure, seeded* sweep points -- the contract every
figure uses, so the fault matrix rides the sweep engine unchanged.  Each
describes its device and hands it to the one plan runner,
:func:`_run_plan`: drive a seeded workload under one
:class:`~repro.blockdev.interpose.FaultPlane` per fault domain composing
power loss at the N-th physical write or NVM append (whole or torn),
per-sector flaky media and a read-error floor; recover; run the deep
fsck; and differentially compare every acknowledged block against an
in-memory oracle.

The oracle is strict about durability: an *acknowledged* write must read
back exactly; the blocks of the one request in flight at the crash may
read old **or** new (the VLD's commit point is the map-chunk append, so
either side of it is consistent); everything else must be what it was.
Transient media errors must be recoverable by retry -- a failed logical
read is re-driven a bounded number of times before it counts as loss.

A failing point is a JSON-serializable fault plan; :func:`minimize`
shrinks it (op count, then crash point) and :func:`write_repro` drops
the result into ``torture-repro/`` as a self-contained recipe (what CI
uploads on failure).
"""

from __future__ import annotations

import json
import os
import random
import struct
import zlib
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.blockdev.interpose import DeviceCrashed, FaultPlan, FaultPlane
from repro.blockdev.nvm import NVM_SPECS
from repro.disk.disk import Disk
from repro.disk.specs import ST19101
from repro.harness.configs import build_sharded_volume
from repro.harness.sweep import SweepPoint, run_sweep
from repro.nvm import NVWal
from repro.vlog.recovery import RecoveryOutcome
from repro.vlog.resilience import MediaError, vlfsck
from repro.vlog.vld import VirtualLogDisk
from repro.volume import ShardUnavailable, volume_fsck

#: Logical span the workloads touch (blocks); small enough that every
#: point runs in a couple of seconds, large enough to span many tracks.
SPAN = 256

#: How many times the harness re-drives a logical read that exhausted
#: the drive's own retries.  Flaky sectors are *transient*: a read that
#: stays dead through drive retries x harness retries is data loss.
HARNESS_READ_RETRIES = 10

#: Ops appended after recovery to prove the device is fully serviceable
#: (allocator, compactor, and scrubber all run on the recovered state).
CONTINUE_OPS = 20


# ======================================================================
# Workloads: seeded generators of (op, lba, count-or-seconds) tuples
# ======================================================================

Op = Tuple[str, int, float]


def _ops_small_writes(rng) -> Iterator[Op]:
    """Uniform single-block writes with occasional read-back."""
    while True:
        lba = rng.randrange(SPAN)
        yield ("write", lba, 1)
        if rng.random() < 0.25:
            yield ("read", rng.randrange(SPAN), 1)


def _ops_overwrites(rng) -> Iterator[Op]:
    """A hot set hammered in place -- maximizes dead map records and
    compactor work, the paper's 'monitor overwrites' path."""
    hot = [rng.randrange(SPAN) for _ in range(16)]
    while True:
        yield ("write", rng.choice(hot), 1)
        if rng.random() < 0.15:
            yield ("read", rng.choice(hot), 1)


def _ops_sequential(rng) -> Iterator[Op]:
    """Multi-block sequential runs (torn-write bait: a crash mid-run
    commits a prefix) followed by sequential read-back."""
    while True:
        start = rng.randrange(SPAN - 8)
        count = rng.randrange(2, 8)
        yield ("write", start, count)
        if rng.random() < 0.3:
            yield ("read", start, count)


def _ops_trims(rng) -> Iterator[Op]:
    """Writes interleaved with trims, so recovery must tell a trimmed
    block from a never-written one."""
    while True:
        lba = rng.randrange(SPAN)
        if rng.random() < 0.3:
            yield ("trim", lba, rng.randrange(1, 4))
        else:
            yield ("write", lba, 1)


def _ops_bursty_idle(rng) -> Iterator[Op]:
    """Write bursts separated by idle gaps: the compactor (and, once
    suspects exist, the scrubber) runs *during* the fault window."""
    while True:
        for _ in range(rng.randrange(4, 10)):
            yield ("write", rng.randrange(SPAN), 1)
        yield ("idle", 0, 0.05 + rng.random() * 0.1)


WORKLOADS: Dict[str, Callable[[Any], Iterator[Op]]] = {
    "small_writes": _ops_small_writes,
    "overwrites": _ops_overwrites,
    "sequential": _ops_sequential,
    "trims": _ops_trims,
    "bursty_idle": _ops_bursty_idle,
}


# ======================================================================
# The oracle
# ======================================================================

def _payload(block_size: int, lba: int, version: int, seed: int) -> bytes:
    """Deterministic block contents for (lba, version): version 0 is the
    all-zero never-written/trimmed state."""
    if version == 0:
        return bytes(block_size)
    word = struct.pack("<IIII", lba & 0xFFFFFFFF, version & 0xFFFFFFFF,
                       seed & 0xFFFFFFFF,
                       zlib.crc32(struct.pack("<II", lba, version)))
    return (word * (block_size // len(word) + 1))[:block_size]


class _Oracle:
    """Differential model of what every logical block must read as.

    ``committed`` maps lba -> version (0 == zeros).  While a request is
    in flight its blocks carry tentative versions in ``pending``: an ack
    commits them, a fault leaves them to the plan runner's ``settle``.
    """

    def __init__(self, block_size: int, seed: int) -> None:
        self.block_size = block_size
        self.seed = seed
        self.committed: Dict[int, int] = {}
        self.pending: Dict[int, int] = {}
        self._next_version = 1

    def begin_write(self, lba: int, count: int) -> bytes:
        pieces = []
        for i in range(count):
            version = self._next_version
            self._next_version += 1
            self.pending[lba + i] = version
            pieces.append(_payload(self.block_size, lba + i, version,
                                   self.seed))
        return b"".join(pieces)

    def begin_trim(self, lba: int, count: int) -> None:
        for i in range(count):
            self.pending[lba + i] = 0

    def ack(self) -> None:
        self.committed.update(self.pending)
        self.pending.clear()

    def expected(self, lba: int) -> bytes:
        return _payload(self.block_size, lba,
                        self.committed.get(lba, 0), self.seed)

    def resolve(self, lba: int, actual: bytes, versions: List[int]) -> bool:
        """Commit whichever of ``versions`` the block actually holds."""
        for version in versions:
            if actual == _payload(self.block_size, lba, version, self.seed):
                self.committed[lba] = version
                return True
        return False

    def audit(self, device, failures: List[str],
              candidates: Dict[int, List[int]]) -> None:
        """Post-recovery: check every block ever touched.  ``candidates``
        (lba -> versions) are what an interrupted request may legally
        have left beside the committed version; each such block resolves
        to whichever side actually persisted, and they are consumed."""
        for lba in sorted(set(self.committed) | set(candidates)):
            actual = _read_retrying(device.read_block, lba)
            if actual is None:
                failures.append(f"lba {lba}: unreadable after retries")
                continue
            versions = [self.committed.get(lba, 0)] + candidates.get(lba, [])
            if not self.resolve(lba, actual, versions):
                failures.append(
                    f"lba {lba}: contents match none of the acceptable "
                    f"versions {versions}"
                )
        candidates.clear()


def _read_retrying(read, *args) -> Optional[bytes]:
    """``read(*args)``'s data, re-driven through transient media errors;
    ``None`` when it stays dead (data loss)."""
    for _ in range(HARNESS_READ_RETRIES):
        try:
            return read(*args)[0]
        except MediaError:
            continue
    return None


def _apply_op(device, oracle: _Oracle, failures: List[str],
              index: int, op: Op) -> bool:
    """Drive one workload op at ``device`` against the oracle; device
    faults other than media errors propagate to the caller, whose fault
    domain they belong to.  Returns False when a read stayed unreadable."""
    kind, lba, arg = op
    if kind == "write":
        data = oracle.begin_write(lba, int(arg))
        device.write_blocks(lba, int(arg), data)
        oracle.ack()
    elif kind == "trim":
        oracle.begin_trim(lba, int(arg))
        device.trim(lba, int(arg))
        oracle.ack()
    elif kind == "idle":
        device.idle(float(arg))
    else:  # read
        count = int(arg)
        actual = _read_retrying(device.read_blocks, lba, count)
        if actual is None:
            failures.append(f"op {index}: read lba {lba} x{count} stayed "
                            f"unreadable through retries")
            return False
        size = oracle.block_size
        for i in range(count):
            if actual[i * size:(i + 1) * size] != oracle.expected(lba + i):
                failures.append(f"op {index}: read lba {lba + i} returned "
                                f"stale or corrupt contents")
    return True


def _pick_flaky(rng, vld: VirtualLogDisk, count: int,
                rate: float) -> Dict[int, float]:
    """Seeded flaky sectors drawn from the *currently used* physical
    footprint (data blocks and live map records), so the degradation is
    guaranteed to sit under live state -- sectors picked uniformly over
    a mostly-empty disk would almost never be read at all.  The
    power-down block never qualifies (both allocators reserve it)."""
    spb = vld.sectors_per_block
    map_spb = vld.vlog.sectors_per_block
    candidates: List[int] = []
    for block in sorted(vld.reverse):
        candidates.extend(range(block * spb, (block + 1) * spb))
    for record in sorted(vld.vlog.live_blocks()):
        candidates.extend(
            range(record * map_spb, (record + 1) * map_spb)
        )
    flaky: Dict[int, float] = {}
    while candidates and len(flaky) < count:
        flaky[candidates[rng.randrange(len(candidates))]] = rate
    return flaky


# ======================================================================
# The plan runner, over a device under test
# ======================================================================

#: Ops driven at a multi-domain device while one domain is down, proving
#: healthy domains keep serving and down-domain requests fail *boundedly*.
DEGRADED_OPS = 24

#: The outcome fields every verdict's ``recovery`` reports.
_RECOVERY_KEYS = ("used_power_down_record", "scanned", "degraded",
                  "reconstructed", "media_errors", "quarantined_sectors")


class _SingleDevice:
    """Device under test: one VLD stack (optionally under an NVWal) --
    a single fault domain, so a crash takes the whole device down.  See
    :func:`_run_plan` for what each member is to the runner."""

    crash_domain = flaky_domain = 0
    crash_error = DeviceCrashed
    degraded_ops = 0  # no sibling to serve a degraded window
    fsck_name = "vlfsck"

    def __init__(self, device, disk: Disk, vld: VirtualLogDisk,
                 orderly_stop: bool) -> None:
        self.device, self.disks, self.vlds = device, [disk], [vld]
        self.wal = device if device is not vld else None
        self.orderly_stop = orderly_stop

    def domain_of(self, lba: int) -> int:
        return 0

    def down_domains(self) -> List[int]:
        return [0]

    def media(self, domain: int) -> list:
        return self.disks + ([self.wal.nvm] if self.wal is not None else [])

    def recover(self, down: Optional[int]) -> RecoveryOutcome:
        if down is None and self.orderly_stop:
            # No crash machinery at all: model an orderly shutdown so the
            # power-record path recovers under the same flaky media.
            self.device.power_down()
        self.device.crash()
        return self.device.recover()

    def fsck(self):
        return vlfsck(self.vlds[0], deep=True)

    def describe(self, verdict, outcome, final, down, window) -> None:
        resilience = self.vlds[0].resilience
        verdict["orderly"] = down is None
        verdict["recovery"]["records_read"] = outcome.records_read
        verdict["fsck"] = {"checked_records": final.checked_records,
                           "checked_blocks": final.checked_blocks}
        verdict["counters"] = {
            "media_errors": resilience.media_errors,
            "retries": resilience.retries,
            "checksum_failures": resilience.checksum_failures,
            "quarantined": len(resilience.quarantine),
            "sectors_scrubbed": resilience.scrubber.sectors_scrubbed,
            "blocks_migrated": resilience.scrubber.blocks_migrated,
        }
        verdict["nvm"] = {
            "replayed_records": outcome.replayed_records,
            "replayed_blocks": outcome.replayed_blocks,
            "torn_tail": outcome.torn_tail,
            "absorbed_writes": self.wal.absorbed_writes,
            "pressure_destages": self.wal.pressure_destages,
        } if self.wal is not None else None


class _VolumeDevice:
    """Device under test: a sharded volume, one fault domain per shard:
    a shard's crash surfaces as the bounded :class:`ShardUnavailable`,
    siblings serve the degraded window, only the down shard recovers."""

    crash_error = ShardUnavailable
    degraded_ops = DEGRADED_OPS
    fsck_name = "volume-fsck"

    def __init__(self, volume, devices, disks, crash_domain: Optional[int],
                 flaky_domain: Optional[int]) -> None:
        self.device, self.vlds, self.disks = volume, devices, disks
        self.crash_domain, self.flaky_domain = crash_domain, flaky_domain

    def domain_of(self, lba: int) -> int:
        return self.device.shard_of(lba)[0]

    def down_domains(self) -> List[int]:
        return [i for i, state in enumerate(self.device.states)
                if state.value == "down"]

    def media(self, domain: int) -> list:
        return [self.disks[domain]]

    def recover(self, down: Optional[int]) -> RecoveryOutcome:
        if down is not None:
            return self.device.recover_shard(down)
        self.device.power_down()
        self.device.crash()
        return self.device.recover()

    def fsck(self):
        return volume_fsck(self.device, deep=True)

    def describe(self, verdict, outcome, final, down, window) -> None:
        verdict["shards"] = self.device.num_shards
        verdict["down_shard"] = verdict["recovery"]["shard"] = down
        verdict["degraded_window"] = dict(window)
        verdict["shard_stats"] = self.device.shard_stats()


def _run_plan(target, workload: str, ops: int, seed: int,
              crash_at: Optional[Tuple[str, int]], variant: str,
              read_error_rate: float, flaky: int,
              flaky_rate: float) -> Dict[str, Any]:
    """Run one composed-fault plan end to end: warm up, seed flaky
    sectors under live state, run faulted until the crash lands, drive
    the degraded window, clear the crash machinery, recover, fsck +
    differential audit, then continue, idle, and fsck + audit again.

    Everything that differs between devices under test is on ``target``:

    * ``device`` -- what the workload drives; ``vlds[d]`` -- the VLD of
      fault domain ``d``; ``media(d)`` -- what its fault plane installs
      on (the raw disk and, under an NVWal, the NVM);
    * ``crash_domain``/``flaky_domain`` -- whose plane carries the crash
      point ``(crash_at, variant)`` (and the read-error floor) / the
      flaky sectors;
    * ``crash_error`` -- the fault that means "the crash landed" (its
      ``shard`` names the domain; unstamped: the only one); any other
      :class:`DeviceCrashed` reaching the runner escaped its domain;
    * ``domain_of(lba)`` -- settles the interrupted request: its blocks
      on healthy domains read back at once, those on the down domain may
      hold old *or* new after recovery;
    * ``down_domains()`` -- what the device itself believes is down;
      ``degraded_ops`` -- ops to drive meanwhile (0: no sibling serves);
    * ``recover(down)`` -- bring back the down domain alone, or (no crash
      landed) stop and restart the whole device; one
      :class:`~repro.vlog.recovery.RecoveryOutcome` either way;
    * ``fsck()``/``fsck_name`` -- the deep checker and its failure-line
      prefix; ``describe(verdict, outcome, final, down, window)`` adds
      the verdict keys only this device has.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; "
                         f"try one of {sorted(WORKLOADS)}")
    rng = random.Random(seed)
    device = target.device
    oracle = _Oracle(device.block_size, seed)
    failures: List[str] = []
    #: lba -> versions a failed request *may* have left on the down
    #: domain; outside the oracle, so a later op's ``ack()`` cannot
    #: commit them by mistake.  The post-recovery audit consumes them.
    frozen: Dict[int, List[int]] = {}
    window = {"ops": 0, "unavailable": 0, "healthy_ok": 0}
    planes: Dict[int, FaultPlane] = {}
    if target.crash_domain is not None:
        planes[target.crash_domain] = FaultPlane(
            crash_at, variant, read_error_rate=read_error_rate, seed=seed,
        ).install(*target.media(target.crash_domain))

    def settle(down: int) -> None:
        """The failed request's pending versions: a block on a healthy
        domain reads back now (its sub-write either fully committed or
        was never issued); one on the down domain freezes."""
        for lba in sorted(oracle.pending):
            version = oracle.pending.pop(lba)
            if target.domain_of(lba) == down:
                frozen.setdefault(lba, []).append(version)
                continue
            actual = _read_retrying(device.read_block, lba)
            old = oracle.committed.get(lba, 0)
            if actual is None:
                failures.append(f"degraded resolve: lba {lba} unreadable "
                                f"on a healthy shard")
            elif not oracle.resolve(lba, actual, [old, version]):
                failures.append(f"degraded resolve: lba {lba} matches "
                                f"none of the acceptable versions")

    def run_ops(budget: int, down: Optional[int] = None) -> int:
        """Drive ``budget`` ops; returns the index of the op a *new*
        crash interrupted, or -1.  With ``down`` set (the degraded
        window) the crash error is the expected bounded refusal -- from
        that domain; from any other it is a failure."""
        for index in range(budget):
            if down is not None:
                window["ops"] += 1
            try:
                served = _apply_op(
                    device, oracle, failures, index, next(op_iter)
                )
                if served and down is not None:
                    window["healthy_ok"] += 1
            except target.crash_error as fault:
                domain = fault.shard or 0
                if down is None:
                    settle(domain)
                    return index
                window["unavailable"] += 1
                if domain != down:
                    failures.append(f"degraded op {index}: shard {domain} "
                                    f"unavailable but only {down} is down")
                settle(down)
            except DeviceCrashed:
                failures.append(f"op {index}: raw DeviceCrashed escaped")
                return index
        return -1

    # A short fault-free warmup lays down live state; the flaky sectors
    # are then seeded *under* it, so the rest of the run -- and the
    # recovery scan -- genuinely read degraded media.
    op_iter = WORKLOADS[workload](random.Random(seed ^ 0x5EED))
    warmup = min(8, ops // 4)
    crashed_at = run_ops(warmup)
    if crashed_at < 0:
        if flaky and target.flaky_domain is not None:
            domain = target.flaky_domain
            plane = planes.setdefault(
                domain, FaultPlane(seed=seed)
            ).install(*target.media(domain))
            plane.flaky_sectors.update(
                _pick_flaky(rng, target.vlds[domain], flaky, flaky_rate)
            )
        rest = run_ops(ops - warmup)
        crashed_at = -1 if rest < 0 else warmup + rest

    # Degraded window: one domain down, its siblings must keep serving.
    down: Optional[int] = None
    if crashed_at >= 0:
        downs = target.down_domains()
        if downs != [target.crash_domain]:
            failures.append(f"fault containment broken: down shards "
                            f"{downs}, expected [{target.crash_domain}]")
        down = downs[0] if downs else target.crash_domain
        run_ops(target.degraded_ops, down=down)

    # Clear the crash machinery (media degradation persists), recover.
    for domain, plane in planes.items():
        FaultPlane(
            read_error_rate=plane.read_error_rate, seed=seed + 1,
            flaky_sectors=plane.flaky_sectors,
        ).install(*target.media(domain))
    outcome = target.recover(down)

    def check(stage: str):
        report = target.fsck()
        for violation in report.violations:
            failures.append(f"{stage}{target.fsck_name}: "
                            f"{violation.kind}: {violation.detail}")
        oracle.audit(device, failures, frozen)
        return report

    check("")
    # Keep going: the recovered device must be fully serviceable.
    if run_ops(CONTINUE_OPS) >= 0:
        failures.append("continue phase crashed with no injector armed")
    device.idle(0.2)  # let the scrubbers drain any suspects
    final = check("final ")

    verdict = {
        "ok": not failures,
        "failures": failures,
        "workload": workload,
        "ops": ops,
        "crashed_at": crashed_at if crashed_at >= 0 else None,
        "recovery": {name: getattr(outcome, name) for name in _RECOVERY_KEYS},
    }
    target.describe(verdict, outcome, final, down, window)
    return verdict


def torture_point(
    workload: str = "small_writes", ops: int = 120,
    crash_after: Optional[int] = None, torn: bool = True,
    read_error_rate: float = 0.0, flaky: int = 0, flaky_rate: float = 0.0,
    queue_depth: int = 1, sched: str = "fifo",
    nvm: bool = False, nvm_crash_after: Optional[int] = None,
    nvm_torn: bool = False, nvm_cap_kb: Optional[int] = None,
    seed: int = 0,
) -> Dict[str, Any]:
    """Run one composed-fault scenario against one VLD end to end;
    returns a JSON-serializable verdict (``ok`` plus diagnostics).

    ``queue_depth``/``sched`` configure the VLD's request scheduler
    (depth > 1: whole runs queue as single requests, so a crash can land
    between the run writes and the map commit).  ``nvm`` threads an
    :class:`~repro.nvm.NVWal` between the workload and the VLD;
    ``nvm_crash_after`` drops the power at the N-th NVM record append
    instead (``crash_after`` wins if both are set; ``nvm_torn``: only a
    prefix of that append persists, else all of it) and ``nvm_cap_kb``
    bounds the log so pressure destages mix destaged and NVM-only state
    first.  The oracle is the same throughout: every acked write reads
    back new, the interrupted op old-or-new.
    """
    disk = Disk(ST19101, num_cylinders=6)
    device = vld = VirtualLogDisk(disk, queue_depth=queue_depth, sched=sched)
    if nvm:
        spec = NVM_SPECS["nvdimm"]
        if nvm_cap_kb is not None:
            spec = spec.with_overrides(capacity_bytes=nvm_cap_kb << 10)
        device = NVWal(vld, spec=spec)
    # A physical write's crash loses it whole (or tears it); an NVM
    # record's lands after the record persisted (or tears it).
    crash_at, variant = None, "torn" if torn else "before"
    if crash_after is not None:
        crash_at = ("sector-run", crash_after)
    elif nvm_crash_after is not None:
        crash_at = ("nvm-record", nvm_crash_after)
        variant = "torn" if nvm_torn else "after"
    target = _SingleDevice(device, disk, vld, orderly_stop=crash_after is None)
    return _run_plan(target, workload, ops, seed, crash_at, variant,
                     read_error_rate, flaky, flaky_rate)


def volume_torture_point(
    workload: str = "small_writes", ops: int = 140,
    shards: int = 3, stripe_blocks: int = 8,
    crash_shard: Optional[int] = None, crash_after: Optional[int] = None,
    torn: bool = True,
    slow_shard: Optional[int] = None, slow_factor: float = 1.0,
    slow_after: Optional[int] = None, slow_ops: Optional[int] = None,
    flaky_shard: Optional[int] = None, flaky: int = 0,
    flaky_rate: float = 0.0, read_error_rate: float = 0.0,
    queue_depth: int = 1, sched: str = "fifo",
    seed: int = 0,
) -> Dict[str, Any]:
    """One multi-shard composed-fault scenario, end to end.

    Fault domains are per shard: the crash point arms only
    ``crash_shard``'s raw disk, the fail-slow plan wraps only
    ``slow_shard``'s stack, flaky sectors degrade only ``flaky_shard``.
    After the crash the volume is driven through a *degraded window* --
    ops on healthy shards must succeed, ops needing the down shard must
    fail with the bounded :class:`ShardUnavailable`, never hang -- then
    **only** the crashed shard recovers, and the volume-level fsck and
    the differential audit run exactly as for the single-device point.
    """
    fault_plans = {}
    if slow_shard is not None and slow_factor > 1.0:
        fault_plans[slow_shard] = FaultPlan(
            seed=seed, slow_factor=slow_factor,
            slow_after_ops=slow_after, slow_duration_ops=slow_ops,
        )
    volume, devices, disks = build_sharded_volume(
        shards, stripe_blocks=stripe_blocks, num_cylinders=6,
        queue_depth=queue_depth, sched=sched, fault_plans=fault_plans,
    )
    target = _VolumeDevice(
        volume, devices, disks,
        crash_domain=crash_shard if crash_after is not None else None,
        flaky_domain=flaky_shard,
    )
    crash_at = None if crash_after is None else ("sector-run", crash_after)
    return _run_plan(target, workload, ops, seed, crash_at,
                     "torn" if torn else "before",
                     read_error_rate, flaky, flaky_rate)


# ======================================================================
# The matrices
# ======================================================================

#: Fault families composed over every workload.  ``crash+torn`` is the
#: paper's power-loss story; ``flaky`` exercises retry + scrub without a
#: crash; ``composed`` stacks everything at once.
FAMILIES: Dict[str, Dict[str, Any]] = {
    "crash": dict(ops=120, crash_after=45, torn=False),
    "crash+torn": dict(ops=120, crash_after=35, torn=True),
    "flaky": dict(ops=100, flaky=6, flaky_rate=0.5),
    "composed": dict(ops=120, crash_after=50, torn=True,
                     flaky=4, flaky_rate=0.4, read_error_rate=0.002),
    # The batched-movement smoke: depth-4 satf queue, so multi-block
    # writes go down as single run requests and the crash can land
    # between a run's media writes and its map commit; recovery must
    # still hand back old-or-new for every block.
    "crash+torn@depth4": dict(ops=120, crash_after=35, torn=True,
                              queue_depth=4, sched="satf"),
    # The two-tier commit point: power loss lands at the N-th NVM log
    # append, squarely between NVM commit and destage.  A 96 KiB log
    # (~23 single-block records) forces pressure destages mid-run, so
    # the crash finds a *mixed* state -- some acked writes destaged,
    # some live only as NVM records -- and recovery must replay exactly
    # the surviving valid prefix.
    "nvm-crash": dict(ops=120, nvm=True, nvm_crash_after=40,
                      nvm_cap_kb=96),
    # Same, with the fatal append torn (CRC catches the half-persisted
    # record) over a depth-4 satf queue, so destage runs ride the
    # batched data-movement path.
    "nvm-crash+torn@depth4": dict(ops=120, nvm=True, nvm_crash_after=40,
                                  nvm_torn=True, nvm_cap_kb=96,
                                  queue_depth=4, sched="satf"),
}

#: Multi-shard fault families: one shard crashes mid-stripe-write,
#: another limps through a fail-slow window, a third degrades its media
#: -- each fault stays inside its domain.  ``@depth4`` runs every shard
#: on a depth-4 SATF queue (the CI quick-set plan).
VOLUME_FAMILIES: Dict[str, Dict[str, Any]] = {
    "shard-crash": dict(ops=140, shards=3, crash_shard=0, crash_after=40,
                        torn=False),
    "shard-crash+torn": dict(ops=140, shards=3, crash_shard=1,
                             crash_after=35, torn=True),
    # The slow onset sits past the health monitor's 32-sample baseline,
    # so "normal" is learned from genuinely normal latencies and the
    # fail-slow window actually trips the detector (hedged reads engage).
    "shard-crash+slow@depth4": dict(
        ops=160, shards=3, crash_shard=0, crash_after=45, torn=True,
        slow_shard=1, slow_factor=8.0, slow_after=60, slow_ops=400,
        queue_depth=4, sched="satf",
    ),
    "shard-composed": dict(
        ops=160, shards=4, crash_shard=0, crash_after=50, torn=True,
        slow_shard=1, slow_factor=6.0, slow_after=60, slow_ops=400,
        flaky_shard=2, flaky=4, flaky_rate=0.4,
    ),
}

#: The volume quick set runs a workload subset (the full cross product
#: is the weekly grid's job): sequential bait for mid-stripe tears,
#: small writes for the common path, bursty idle for scrub/compact
#: during the fault window.
VOLUME_QUICK_WORKLOADS = ("small_writes", "sequential", "bursty_idle")

Names = Optional[List[str]]


def _grid(fn: Callable, table: Dict[str, Dict[str, Any]], seeds,
          workloads: Names, families: Names) -> List[SweepPoint]:
    """The (workload x fault-family x seed) grid of one point function
    over its family table, as sweep points."""
    return [
        SweepPoint(fn_name=f"{fn.__module__}:{fn.__name__}",
                   params=dict(table[family], workload=name), seed=seed)
        for name in workloads or sorted(WORKLOADS)
        for family in families or sorted(table)
        for seed in seeds
    ]


def matrix(seeds: Tuple[int, ...] = (0,), workloads: Names = None,
           families: Names = None) -> List[SweepPoint]:
    return _grid(torture_point, FAMILIES, seeds, workloads, families)


def quick_set(families: Names = None) -> List[SweepPoint]:
    """The CI quick matrix: every workload x every family, one seed."""
    return matrix(families=families)


def long_set(families: Names = None) -> List[SweepPoint]:
    """The weekly matrix: more seeds over the same grid."""
    return matrix(tuple(range(8)), families=families)


def volume_matrix(seeds: Tuple[int, ...] = (0,), workloads: Names = None,
                  families: Names = None) -> List[SweepPoint]:
    return _grid(volume_torture_point, VOLUME_FAMILIES, seeds, workloads,
                 families)


def volume_quick_set(families: Names = None) -> List[SweepPoint]:
    """The CI quick matrix: bounded workload subset, every family."""
    return volume_matrix(workloads=list(VOLUME_QUICK_WORKLOADS),
                         families=families)


def volume_long_set(families: Names = None) -> List[SweepPoint]:
    """The weekly matrix: every workload, more seeds."""
    return volume_matrix(tuple(range(4)), families=families)


def run_matrix(points: List[SweepPoint]) -> List[Dict[str, Any]]:
    """Execute the grid through the sweep engine (the enclosing jobs and
    cache context applies); each verdict is annotated with its point's
    (params, seed) for the minimizer."""
    verdicts = []
    for result in run_sweep(points):
        verdict = dict(result.value)
        verdict["params"] = dict(result.point.params)
        verdict["seed"] = result.point.seed
        verdicts.append(verdict)
    return verdicts


# ======================================================================
# Minimization + repro artifacts
# ======================================================================

def minimize(params: Dict[str, Any], seed: int,
             runs_budget: int = 40,
             fn: Callable[..., Dict[str, Any]] = torture_point,
             ) -> Dict[str, Any]:
    """Shrink a failing fault plan to the smallest one that still fails.

    Greedy halving on ``ops`` first (fewer ops = less log to read in the
    repro), then on whichever crash point the plan carries
    (``crash_after``, ``nvm_crash_after``); failure need not be monotone
    in either, so each halving step is *verified* by re-running the
    point and abandoned when the smaller plan passes.  ``fn`` is the
    point function the plan belongs to.
    """
    runs = 0

    def fails(candidate: Dict[str, Any]) -> bool:
        nonlocal runs
        runs += 1
        return not fn(seed=seed, **candidate)["ok"]

    if not fails(params):
        raise ValueError("minimize() needs a failing plan to start from")
    best = dict(params)
    for key in ("ops", "crash_after", "nvm_crash_after"):
        value = best.get(key)
        while value is not None and value > 1 and runs < runs_budget:
            candidate = dict(best, **{key: value // 2})
            if fails(candidate):
                best = candidate
                value = best[key]
            else:
                break
    return {"params": best, "seed": seed, "runs": runs,
            "fn": f"{fn.__module__}:{fn.__name__}"}


def write_repro(verdict: Dict[str, Any], minimized: Dict[str, Any],
                directory: str = "torture-repro") -> str:
    """Drop a self-contained reproduction recipe for one failure."""
    os.makedirs(directory, exist_ok=True)
    params, seed = minimized["params"], minimized["seed"]
    fn_ref = minimized.get("fn", "repro.harness.torture:torture_point")
    fn_name = fn_ref.rsplit(":", 1)[-1]
    call = ", ".join(
        [f"{k}={v!r}" for k, v in sorted(params.items())] + [f"seed={seed}"]
    )
    artifact = {
        "fn": fn_ref,
        "params": params,
        "seed": seed,
        "failures": verdict["failures"],
        "original_params": verdict["params"],
        "reproduce": (
            "PYTHONPATH=src python -c \"from repro.harness.torture import "
            f"{fn_name}; import json; "
            f"print(json.dumps({fn_name}({call}), indent=2))\""
        ),
    }
    # Named after the whole crash point (ordinal, tear, queue depth), or
    # two families sharing workload, ops and ordinal share one file.
    fields = ["volume" if "shards" in params else None,
              params.get("workload"), params.get("ops")]
    if params.get("crash_after") is not None:
        fields.append(f"{params['crash_after']}"
                      + ("torn" if params.get("torn", True) else ""))
    if params.get("nvm_crash_after") is not None:
        fields.append(f"nvm{params['nvm_crash_after']}"
                      + ("torn" if params.get("nvm_torn") else ""))
    name = "-".join(str(field) for field in fields if field is not None)
    if params.get("queue_depth", 1) > 1:
        name += f"@depth{params['queue_depth']}"
    path = os.path.join(directory, f"torture-{name}-seed{seed}.json")
    with open(path, "w", encoding="utf-8") as sink:
        json.dump(artifact, sink, indent=2, sort_keys=True)
        sink.write("\n")
    return path
