"""Composed-fault torture harness for the virtual log disk.

Each :func:`torture_point` is a *pure, seeded* sweep point (the same
contract every figure uses, so the fault matrix rides the PR-3 sweep
engine unchanged): build a small VLD, drive a seeded workload through a
:class:`~repro.blockdev.interpose.DiskFaultInjector` composing
crash-after-N physical writes, torn final writes, per-sector flaky media
and an uncorrelated read-error floor; crash; recover; run the online
:func:`~repro.vlog.resilience.vlfsck` checker; and differentially
compare every acknowledged block against an in-memory oracle.

The oracle is strict about durability semantics: a block whose write was
*acknowledged* must read back exactly; the blocks of the one request in
flight at the crash may legally read old **or** new (the VLD's commit
point is the map-chunk append, so either side of it is a consistent
outcome); everything else must be what it was.  Transient (flaky) media
errors must be recoverable by retry -- the harness re-drives a failed
logical read a bounded number of times before declaring data loss.

A failing point is a JSON-serializable fault plan, and
:func:`minimize` shrinks it -- first the op count, then the crash point
-- to the smallest plan that still fails, which :func:`write_repro`
drops into ``torture-repro/`` as a self-contained reproduction recipe
(this is what CI uploads on failure).
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.blockdev.interpose import (
    DeviceCrashed,
    DiskFaultInjector,
    FaultPlan,
)
from repro.disk.disk import Disk
from repro.disk.specs import ST19101
from repro.harness.configs import build_sharded_volume
from repro.harness.sweep import SweepPoint, run_sweep
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
    in flight, each of its blocks also carries a tentative new version
    in ``pending``; a crash freezes those as *acceptable alternatives*
    until the post-recovery audit resolves which side of the commit
    point each block landed on.
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

    def acceptable(self, lba: int) -> List[int]:
        versions = [self.committed.get(lba, 0)]
        if lba in self.pending and self.pending[lba] not in versions:
            versions.append(self.pending[lba])
        return versions

    def expected(self, lba: int) -> bytes:
        return _payload(self.block_size, lba,
                        self.committed.get(lba, 0), self.seed)

    def audit(self, device, failures: List[str],
              extra_candidates: Optional[Dict[int, List[int]]] = None,
              ) -> None:
        """Post-recovery: check every block ever touched, resolving the
        crashed request's blocks to whichever side actually persisted.
        ``extra_candidates`` (lba -> versions) are further versions a
        block may legally hold; they are consumed."""
        extra = extra_candidates if extra_candidates is not None else {}
        for lba in sorted(set(self.committed) | set(self.pending)
                          | set(extra)):
            actual = _read_retrying(device.read_block, lba)
            if actual is None:
                failures.append(f"lba {lba}: unreadable after retries")
                continue
            versions = self.acceptable(lba) + extra.get(lba, [])
            for version in versions:
                if actual == _payload(self.block_size, lba, version,
                                      self.seed):
                    self.committed[lba] = version
                    break
            else:
                failures.append(
                    f"lba {lba}: contents match none of the acceptable "
                    f"versions {versions}"
                )
        self.pending.clear()
        extra.clear()


# ======================================================================
# The op driver and the verdict's recovery summary (both points)
# ======================================================================

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
            failures.append(
                f"op {index}: read lba {lba} x{count} stayed "
                f"unreadable through retries"
            )
            return False
        size = oracle.block_size
        for i in range(count):
            if actual[i * size:(i + 1) * size] != oracle.expected(lba + i):
                failures.append(
                    f"op {index}: read lba {lba + i} returned "
                    f"stale or corrupt contents"
                )
    return True


def _recovery_summary(outcomes) -> Dict[str, Any]:
    """The verdict's ``recovery`` fields over one or more outcomes."""
    return {
        "used_power_down_record": all(
            o.used_power_down_record for o in outcomes
        ),
        "scanned": any(o.scanned for o in outcomes),
        "degraded": any(o.degraded for o in outcomes),
        "reconstructed": any(o.reconstructed for o in outcomes),
        "media_errors": sum(o.media_errors for o in outcomes),
        "quarantined_sectors": sum(
            o.quarantined_sectors for o in outcomes
        ),
    }


# ======================================================================
# One torture point
# ======================================================================

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


def torture_point(
    workload: str = "small_writes",
    ops: int = 120,
    crash_after: Optional[int] = None,
    torn: bool = True,
    read_error_rate: float = 0.0,
    flaky: int = 0,
    flaky_rate: float = 0.0,
    queue_depth: int = 1,
    sched: str = "fifo",
    nvm: bool = False,
    nvm_crash_after: Optional[int] = None,
    nvm_torn: bool = False,
    nvm_cap_kb: Optional[int] = None,
    seed: int = 0,
) -> Dict[str, Any]:
    """Run one composed-fault scenario end to end; returns a
    JSON-serializable verdict (``ok`` plus diagnostics).

    ``queue_depth``/``sched`` configure the VLD's internal request
    scheduler: depth > 1 runs the batched data-movement path with whole
    runs queued as single requests, so a crash can land between the run
    writes and the map commit -- the recovery audit still demands
    old-or-new contents for every block.

    ``nvm`` threads an :class:`~repro.nvm.NVWal` write-ahead tier
    between the workload and the VLD; ``nvm_crash_after`` arms power
    loss at the N-th NVM log append (``nvm_torn``: that append persists
    only a prefix), so the crash lands exactly between NVM commit and
    destage, and ``nvm_cap_kb`` bounds the log so pressure destages put
    the run in a mixed destaged/NVM-only state first.  The oracle is
    unchanged: every acked write must read back new, the interrupted op
    old-or-new.
    """
    import random

    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; "
                         f"try one of {sorted(WORKLOADS)}")
    rng = random.Random(seed)
    disk = Disk(ST19101, num_cylinders=6)
    vld = VirtualLogDisk(disk, queue_depth=queue_depth, sched=sched)
    if nvm:
        from repro.blockdev.nvm import NVM_SPECS
        from repro.nvm import NVWal, NVWalInjector

        spec = NVM_SPECS["nvdimm"]
        if nvm_cap_kb is not None:
            spec = spec.with_overrides(capacity_bytes=nvm_cap_kb << 10)
        device = NVWal(vld, spec=spec)
        if nvm_crash_after is not None:
            device.injector = NVWalInjector(nvm_crash_after, torn=nvm_torn)
    else:
        device = vld
    oracle = _Oracle(vld.block_size, seed)
    failures: List[str] = []

    flaky_sectors: Dict[int, float] = {}
    injector = DiskFaultInjector(
        crash_after_writes=crash_after,
        torn=torn,
        read_error_rate=read_error_rate,
        seed=seed,
    ).install(disk)

    def run_ops(op_iter: Iterator[Op], budget: int) -> int:
        """Drive ``budget`` ops; returns the index of the op the crash
        interrupted, or -1 when all completed."""
        for index in range(budget):
            try:
                _apply_op(device, oracle, failures, index, next(op_iter))
            except DeviceCrashed:
                return index
        return -1

    # A short fault-free warmup lays down live state; the flaky sectors
    # are then seeded *under* it, so the rest of the run -- and the
    # recovery scan -- genuinely read degraded media.
    op_iter = WORKLOADS[workload](random.Random(seed ^ 0x5EED))
    warmup = min(8, ops // 4)
    crashed_at = run_ops(op_iter, warmup)
    if crashed_at < 0:
        if flaky:
            flaky_sectors.update(_pick_flaky(rng, vld, flaky, flaky_rate))
            injector.flaky_sectors.update(flaky_sectors)
        rest = run_ops(op_iter, ops - warmup)
        crashed_at = -1 if rest < 0 else warmup + rest
    orderly = crashed_at < 0
    if orderly and crash_after is None:
        # No crash machinery at all: model an orderly shutdown so the
        # power-record path recovers under the same flaky media.
        device.power_down()

    # ------------------------------------------------------------------
    # Crash, clear the crash machinery (media degradation persists),
    # recover, audit.
    # ------------------------------------------------------------------
    injector.uninstall(disk)
    injector = DiskFaultInjector(
        read_error_rate=read_error_rate,
        seed=seed + 1,
        flaky_sectors=flaky_sectors,
    ).install(disk)
    if nvm:
        device.injector = None  # crash machinery cleared before recovery
    device.crash()
    outcome = device.recover()

    report = vlfsck(vld, deep=True)
    for violation in report.violations:
        failures.append(f"vlfsck: {violation.kind}: {violation.detail}")
    oracle.audit(device, failures)

    # ------------------------------------------------------------------
    # Keep going: the recovered device must be fully serviceable.
    # ------------------------------------------------------------------
    if run_ops(op_iter, CONTINUE_OPS) >= 0:
        failures.append("continue phase crashed with no injector armed")
    device.idle(0.2)  # let the scrubber drain any suspects
    final = vlfsck(vld, deep=True)
    for violation in final.violations:
        failures.append(f"final vlfsck: {violation.kind}: "
                        f"{violation.detail}")
    oracle.audit(device, failures)

    resilience = vld.resilience
    return {
        "ok": not failures,
        "failures": failures,
        "workload": workload,
        "ops": ops,
        "crashed_at": crashed_at if crashed_at >= 0 else None,
        "orderly": orderly,
        "recovery": dict(
            _recovery_summary([outcome]), records_read=outcome.records_read
        ),
        "fsck": {
            "checked_records": final.checked_records,
            "checked_blocks": final.checked_blocks,
        },
        "counters": {
            "media_errors": resilience.media_errors,
            "retries": resilience.retries,
            "checksum_failures": resilience.checksum_failures,
            "quarantined": len(resilience.quarantine),
            "sectors_scrubbed": resilience.scrubber.sectors_scrubbed,
            "blocks_migrated": resilience.scrubber.blocks_migrated,
        },
        "nvm": {
            "replayed_records": outcome.replayed_records,
            "replayed_blocks": outcome.replayed_blocks,
            "torn_tail": outcome.torn_tail,
            "absorbed_writes": device.absorbed_writes,
            "pressure_destages": device.pressure_destages,
        } if nvm else None,
    }


# ======================================================================
# One *volume* torture point: multi-shard composed plans
# ======================================================================

#: Ops driven at the volume while one shard is down, proving healthy
#: shards keep serving and down-shard requests fail *boundedly*.
DEGRADED_OPS = 24


def volume_torture_point(
    workload: str = "small_writes",
    ops: int = 140,
    shards: int = 3,
    stripe_blocks: int = 8,
    crash_shard: Optional[int] = None,
    crash_after: Optional[int] = None,
    torn: bool = True,
    slow_shard: Optional[int] = None,
    slow_factor: float = 1.0,
    slow_after: Optional[int] = None,
    slow_ops: Optional[int] = None,
    flaky_shard: Optional[int] = None,
    flaky: int = 0,
    flaky_rate: float = 0.0,
    read_error_rate: float = 0.0,
    queue_depth: int = 1,
    sched: str = "fifo",
    seed: int = 0,
) -> Dict[str, Any]:
    """One multi-shard composed-fault scenario, end to end.

    Fault domains are per shard: the crash injector arms only
    ``crash_shard``'s raw disk, the fail-slow plan wraps only
    ``slow_shard``'s stack, flaky sectors degrade only ``flaky_shard``.
    After the crash the harness keeps driving the volume through a
    *degraded window* -- ops that touch only healthy shards must
    succeed; ops needing the down shard must fail with the bounded
    :class:`ShardUnavailable`, never hang -- then recovers **only** the
    crashed shard, runs the volume-level fsck (deep), and audits every
    block differentially, exactly like the single-device point.
    """
    import random

    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; "
                         f"try one of {sorted(WORKLOADS)}")
    rng = random.Random(seed)
    fault_plans = {}
    if slow_shard is not None and slow_factor > 1.0:
        fault_plans[slow_shard] = FaultPlan(
            seed=seed,
            slow_factor=slow_factor,
            slow_after_ops=slow_after,
            slow_duration_ops=slow_ops,
        )
    volume, devices, disks = build_sharded_volume(
        shards,
        stripe_blocks=stripe_blocks,
        num_cylinders=6,
        queue_depth=queue_depth,
        sched=sched,
        fault_plans=fault_plans,
    )
    oracle = _Oracle(volume.block_size, seed)
    failures: List[str] = []

    flaky_sectors: Dict[int, float] = {}
    crash_injector: Optional[DiskFaultInjector] = None
    if crash_shard is not None and crash_after is not None:
        crash_injector = DiskFaultInjector(
            crash_after_writes=crash_after,
            torn=torn,
            read_error_rate=read_error_rate,
            seed=seed,
        ).install(disks[crash_shard])
    flaky_injector: Optional[DiskFaultInjector] = None

    #: lba -> versions a failed request *may* have left on the down
    #: shard (old remains acceptable too).  Kept outside the oracle so a
    #: later successful op's ``ack()`` cannot commit them by mistake;
    #: the post-recovery audit folds them back in as candidates.
    frozen: Dict[int, List[int]] = {}

    def resolve_pending(down: Optional[int]) -> None:
        """After a mid-stripe-write failure, settle the oracle's pending
        versions: blocks on *healthy* shards read back immediately (each
        sub-write either fully committed or never issued); blocks on the
        down shard freeze as acceptable candidates for the
        post-recovery audit."""
        for lba in sorted(oracle.pending):
            version = oracle.pending.pop(lba)
            shard, _ = volume.shard_of(lba)
            if shard == down:
                frozen.setdefault(lba, []).append(version)
                continue
            actual = _read_retrying(volume.read_block, lba)
            if actual is None:
                failures.append(
                    f"degraded resolve: lba {lba} unreadable on a "
                    f"healthy shard"
                )
                continue
            for candidate in (oracle.committed.get(lba, 0), version):
                if actual == _payload(volume.block_size, lba, candidate,
                                      seed):
                    oracle.committed[lba] = candidate
                    break
            else:
                failures.append(
                    f"degraded resolve: lba {lba} matches none of the "
                    f"acceptable versions"
                )

    degraded_stats = {"ops": 0, "unavailable": 0, "healthy_ok": 0}

    def run_ops(op_iter: Iterator[Op], budget: int,
                down: Optional[int] = None) -> int:
        """Drive ``budget`` volume ops; returns the index of the op a
        *new* shard crash interrupted, or -1.  With ``down`` set (the
        degraded window), :class:`ShardUnavailable` against that shard
        is the expected bounded error; against any other shard it is a
        failure."""
        for index in range(budget):
            if down is not None:
                degraded_stats["ops"] += 1
            try:
                served = _apply_op(
                    volume, oracle, failures, index, next(op_iter)
                )
                if served and down is not None:
                    degraded_stats["healthy_ok"] += 1
            except ShardUnavailable as fault:
                if down is None:
                    # The crash moment itself: the volume turned the
                    # shard's DeviceCrashed into a bounded error.
                    resolve_pending(fault.shard)
                    return index
                degraded_stats["unavailable"] += 1
                if fault.shard != down:
                    failures.append(
                        f"degraded op {index}: shard {fault.shard} "
                        f"unavailable but only shard {down} is down"
                    )
                resolve_pending(down)
            except DeviceCrashed:
                # Should not escape the volume -- it maps crashes to
                # ShardUnavailable -- but never let the harness hang on
                # the difference.
                failures.append(
                    f"op {index}: raw DeviceCrashed escaped the volume"
                )
                return index
        return -1

    # Warmup (fault-free on flaky terms), then seed flaky sectors under
    # the flaky shard's live footprint, then the main faulted phase.
    op_iter = WORKLOADS[workload](random.Random(seed ^ 0x5EED))
    warmup = min(8, ops // 4)
    crashed_at = run_ops(op_iter, warmup)
    if crashed_at < 0:
        if flaky_shard is not None and flaky:
            flaky_sectors.update(_pick_flaky(
                rng, devices[flaky_shard], flaky, flaky_rate
            ))
            flaky_injector = DiskFaultInjector(
                seed=seed,
                flaky_sectors=flaky_sectors,
            ).install(disks[flaky_shard])
        rest = run_ops(op_iter, ops - warmup)
        crashed_at = -1 if rest < 0 else warmup + rest
    crashed = crashed_at >= 0

    # ------------------------------------------------------------------
    # Degraded window: one shard down, siblings must keep serving.
    # ------------------------------------------------------------------
    down_shard: Optional[int] = None
    if crashed:
        down = [
            i for i, state in enumerate(volume.states)
            if state.value == "down"
        ]
        if len(down) != 1 or (
            crash_shard is not None and down != [crash_shard]
        ):
            failures.append(
                f"fault containment broken: down shards {down}, "
                f"expected [{crash_shard}]"
            )
        down_shard = down[0] if down else crash_shard
        run_ops(op_iter, DEGRADED_OPS, down=down_shard)

    # ------------------------------------------------------------------
    # Clear crash machinery (media degradation persists), recover ONLY
    # the crashed shard -- or the whole volume after an orderly stop.
    # ------------------------------------------------------------------
    if crash_injector is not None:
        crash_injector.uninstall(disks[crash_shard])
    if flaky_injector is not None:
        flaky_injector.uninstall(disks[flaky_shard])
        flaky_injector = DiskFaultInjector(
            seed=seed + 1,
            flaky_sectors=flaky_sectors,
        ).install(disks[flaky_shard])
    if down_shard is not None:
        outcomes = [volume.recover_shard(down_shard)]
    else:
        volume.power_down()
        volume.crash()
        outcomes = volume.recover()
    recovery = dict(shard=down_shard, **_recovery_summary(outcomes))

    report = volume_fsck(volume, deep=True)
    if not report.ok:
        for violation in report.violations:
            failures.append(
                f"volume-fsck: {violation.kind}: {violation.detail}"
            )
    oracle.audit(volume, failures, extra_candidates=frozen)

    # ------------------------------------------------------------------
    # Keep going: the recovered volume must be fully serviceable.
    # ------------------------------------------------------------------
    if run_ops(op_iter, CONTINUE_OPS) >= 0:
        failures.append("continue phase crashed with no injector armed")
    volume.idle(0.2)  # scrubber windows, per healthy shard
    final = volume_fsck(volume, deep=True)
    if not final.ok:
        for violation in final.violations:
            failures.append(
                f"final volume-fsck: {violation.kind}: {violation.detail}"
            )
    oracle.audit(volume, failures, extra_candidates=frozen)

    return {
        "ok": not failures,
        "failures": failures,
        "workload": workload,
        "ops": ops,
        "shards": shards,
        "crashed_at": crashed_at if crashed else None,
        "down_shard": down_shard,
        "degraded_window": dict(degraded_stats),
        "recovery": recovery,
        "shard_stats": volume.shard_stats(),
    }


#: Multi-shard fault families: one shard crashes mid-stripe-write,
#: another limps through a fail-slow window, a third degrades its media
#: -- each fault stays inside its domain.  ``@depth4`` runs every shard
#: on a depth-4 SATF queue (the CI quick-set plan).
VOLUME_FAMILIES: Dict[str, Dict[str, Any]] = {
    "shard-crash": dict(
        ops=140, shards=3, crash_shard=0, crash_after=40, torn=False,
    ),
    "shard-crash+torn": dict(
        ops=140, shards=3, crash_shard=1, crash_after=35, torn=True,
    ),
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


def volume_matrix(
    seeds: Tuple[int, ...] = (0,),
    workloads: Optional[List[str]] = None,
    families: Optional[List[str]] = None,
) -> List[SweepPoint]:
    """The (workload x shard-fault-family x seed) grid as sweep points."""
    points: List[SweepPoint] = []
    for name in workloads or sorted(WORKLOADS):
        for family in families or sorted(VOLUME_FAMILIES):
            for seed in seeds:
                params = dict(VOLUME_FAMILIES[family], workload=name)
                points.append(SweepPoint(
                    fn_name="repro.harness.torture:volume_torture_point",
                    params=params,
                    seed=seed,
                ))
    return points


def volume_quick_set() -> List[SweepPoint]:
    """The CI quick matrix: bounded workload subset, every family."""
    return volume_matrix(
        seeds=(0,), workloads=list(VOLUME_QUICK_WORKLOADS)
    )


def volume_long_set() -> List[SweepPoint]:
    """The weekly matrix: every workload, more seeds."""
    return volume_matrix(seeds=tuple(range(4)))


# ======================================================================
# The matrix
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


def matrix(
    seeds: Tuple[int, ...] = (0,),
    workloads: Optional[List[str]] = None,
    families: Optional[List[str]] = None,
) -> List[SweepPoint]:
    """The (workload x fault-family x seed) grid as sweep points."""
    points: List[SweepPoint] = []
    for name in workloads or sorted(WORKLOADS):
        for family in families or sorted(FAMILIES):
            for seed in seeds:
                params = dict(FAMILIES[family], workload=name)
                points.append(SweepPoint(
                    fn_name="repro.harness.torture:torture_point",
                    params=params,
                    seed=seed,
                ))
    return points


def quick_set(families: Optional[List[str]] = None) -> List[SweepPoint]:
    """The CI quick matrix: every workload x every family, one seed."""
    return matrix(seeds=(0,), families=families)


def long_set(families: Optional[List[str]] = None) -> List[SweepPoint]:
    """The weekly matrix: more seeds over the same grid."""
    return matrix(seeds=tuple(range(8)), families=families)


def run_matrix(points: List[SweepPoint],
               jobs: Optional[int] = None) -> List[Dict[str, Any]]:
    """Execute the grid through the sweep engine (process-wide jobs and
    cache defaults apply, so ``--jobs``/``--cache`` just work); a
    failing point's verdict is annotated with its (params, seed) for
    the minimizer."""
    verdicts = []
    for result in run_sweep(points, jobs=jobs):
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
    repro), then on ``crash_after``; failure need not be monotone in
    either, so each halving step is *verified* by re-running the point
    and abandoned when the smaller plan passes.  ``fn`` selects the
    point function (:func:`torture_point` or
    :func:`volume_torture_point`); the same shrink keys apply to both.
    """
    runs = 0

    def fails(candidate: Dict[str, Any]) -> bool:
        nonlocal runs
        runs += 1
        return not fn(seed=seed, **candidate)["ok"]

    if not fails(params):
        raise ValueError("minimize() needs a failing plan to start from")
    best = dict(params)
    for key, floor in (("ops", 1), ("crash_after", 1)):
        value = best.get(key)
        while value is not None and value > floor and runs < runs_budget:
            candidate = dict(best, **{key: max(floor, value // 2)})
            if fails(candidate):
                best = candidate
                value = best[key]
            else:
                break
    return {
        "params": best,
        "seed": seed,
        "runs": runs,
        "fn": f"{fn.__module__}:{fn.__name__}",
    }


def write_repro(verdict: Dict[str, Any], minimized: Dict[str, Any],
                directory: str = "torture-repro") -> str:
    """Drop a self-contained reproduction recipe for one failure."""
    os.makedirs(directory, exist_ok=True)
    params, seed = minimized["params"], minimized["seed"]
    fn_ref = minimized.get(
        "fn", "repro.harness.torture:torture_point"
    )
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
    name = "-".join(
        str(params.get(k, "")) for k in ("workload", "ops", "crash_after")
    )
    if "shards" in params:
        name = f"volume-{name}"
    path = os.path.join(directory, f"torture-{name}-seed{seed}.json")
    with open(path, "w", encoding="utf-8") as sink:
        json.dump(artifact, sink, indent=2, sort_keys=True)
        sink.write("\n")
    return path
