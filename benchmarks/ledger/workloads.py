"""The five ledger workloads: five compositions of the real stack.

Each workload builds its stack and generates its op list from the seed
in ``__init__`` (set-up, not measured), then :func:`drive` feeds the ops
to :meth:`Workload.step` one at a time -- a closed loop, one thread.  The
program under test never sees the seed, only the ops.  Every workload
keeps an oracle of what it wrote and checks what it reads back;
``failed`` counts ops that raised or whose data mismatched.

Op counts at ``scale=1.0`` are sized so one measured pass takes 2-3 host
seconds on the reference box (see README.md); ``scale`` shrinks them for
the self-test.
"""

from __future__ import annotations

import random
from time import perf_counter
from typing import Callable, Dict, List, Tuple

from metrics import nearest_rank
from repro.blockdev.nvm import NVM_SPECS
from repro.disk.disk import Disk
from repro.disk.specs import ST19101
from repro.harness.configs import STACKS, build_sharded_volume, build_stack
from repro.hosts.multihost import run_multihost
from repro.nvm.wal import NVWal
from repro.vlog.vld import VirtualLogDisk
from repro.workloads.random_update import prepare_file

BLOCK = 4096
#: One 4 KB page per byte value: payloads are ``PAGES[x]``, oracles store ``x``.
PAGES = [bytes([x]) * BLOCK for x in range(256)]
#: Reads (or, for write-only workloads, written blocks) checked against
#: the oracle: one in this many.
VERIFY_EVERY = 16
#: Counters that are high-water marks, not running totals: reported as
#: they stand, where the totals are reported as measured-phase deltas.
GAUGES = ("sched.max_outstanding",)

#: ``wrap(span name, fn) -> fn``: the traced pass passes
#: ``Tracer.wrap``, a measured pass :func:`no_wrap`.
Wrap = Callable[[str, Callable], Callable]


def no_wrap(name: str, fn: Callable) -> Callable:
    return fn


def _sum(objects, attr: str) -> float:
    return sum(getattr(obj, attr) for obj in objects)


def _wal_counters(wal: NVWal) -> Dict[str, float]:
    return {
        "nvm.wal.absorbed_writes": wal.absorbed_writes,
        "nvm.wal.bypassed_writes": wal.bypassed_writes,
        "nvm.wal.destaged_blocks": wal.destaged_blocks,
        "nvm.wal.pressure_destages": wal.pressure_destages,
        "nvm.wal.log_resets": wal.log_resets,
        "nvm.wal.ack_s": wal.ack_times.sum,
        "blockdev.nvmdev.stores": wal.nvm.stores,
        "blockdev.nvmdev.flushes": wal.nvm.flushes,
    }


class Workload:
    """Common bookkeeping; subclasses build a stack and define ``step``."""

    name = ""
    #: What one op is, for the printed report.
    op_unit = "op"

    def __init__(self) -> None:
        self.ops: List[tuple] = []
        #: Simulated seconds of each timed op, in op order.
        self.samples: List[float] = []
        self.user_bytes = 0
        self.failed = 0
        self.first_error = ""
        self.disks: List[Disk] = []
        self.vlds: List[VirtualLogDisk] = []
        self.schedulers: list = []

    # -- the measured phase ------------------------------------------

    def step(self, op: tuple) -> None:
        raise NotImplementedError

    def fail(self, what: str) -> None:
        self.failed += 1
        if not self.first_error:
            self.first_error = what

    @property
    def attempted(self) -> int:
        return len(self.ops)

    def verify(self) -> None:
        """Post-phase oracle checks that would disturb the measured
        phase if made inside it (the default has none)."""

    # -- simulated-time results --------------------------------------

    def sim_seconds(self) -> float:
        """Simulated seconds on this workload's clock(s) so far."""
        clocks = {id(disk.clock): disk.clock for disk in self.disks}
        return sum(clock.now for clock in clocks.values())

    def sim_latency_ms(self) -> Tuple[float, float, int]:
        """``(mean, nearest-rank p99, sample count)`` of the timed op."""
        ordered = sorted(self.samples)
        n = len(ordered)
        return sum(ordered) / n * 1e3, nearest_rank(ordered, 99) * 1e3, n

    # -- public counters, cumulative ---------------------------------

    def counters(self) -> Dict[str, float]:
        """Every layer's public counters, summed over the stack's
        instances.  Cumulative since construction: the caller subtracts
        a snapshot taken when the measured phase started."""
        disks, vlds, scheds = self.disks, self.vlds, self.schedulers
        counters = [disk.counters for disk in disks]
        caches = [disk.cache for disk in disks]
        allocators = [a for v in vlds for a in (v.allocator, v.map_allocator)]
        logs = [vld.vlog for vld in vlds]
        compactors = [vld.compactor for vld in vlds]
        out = {
            "disk.reads": _sum(counters, "reads"),
            "disk.writes": _sum(counters, "writes"),
            "disk.sectors_read": _sum(counters, "sectors_read"),
            "disk.sectors_written": _sum(counters, "sectors_written"),
            "disk.busy_s": _sum(counters, "busy_time"),
            "disk.trackbuf.hits": _sum(caches, "hits"),
            "disk.trackbuf.misses": _sum(caches, "misses"),
            "vlog.allocator.allocations": _sum(allocators, "allocations"),
            "vlog.allocator.fallbacks": _sum(allocators, "fallbacks"),
            "vlog.log.appends": _sum(logs, "appends"),
            "vlog.log.relocations": _sum(logs, "relocations"),
            "vlog.compactor.blocks_moved": _sum(compactors, "blocks_moved"),
            "vlog.compactor.tracks_compacted": _sum(
                compactors, "tracks_compacted"
            ),
            "sched.serviced": _sum(scheds, "serviced"),
            "sched.busy_s": _sum(scheds, "busy_seconds"),
            "sched.max_outstanding": max(
                [s.max_outstanding for s in scheds], default=0
            ),
            "sched.service_s": sum(s.service_times.sum for s in scheds),
            "sched.response_s": sum(s.response_times.sum for s in scheds),
        }
        out.update(self.extra_counters())
        return out

    def extra_counters(self) -> Dict[str, float]:
        return {}


#: The measured phase is cut into this many chunks (fewer when there are
#: fewer ops) with a burst of the calibration loop after each.
CHUNKS = 16


def drive(
    workload: Workload,
    step: Callable[[tuple], None],
    calibrate: Callable[[], int],
) -> Tuple[float, float, int]:
    """The load generator: issue each op when the previous one returns.
    ``step`` is ``workload.step``, span-wrapped in a traced pass.

    Returns ``(work seconds, calibration seconds, calibration loop
    iterations)``.  The calibration bursts are interleaved with the ops
    so that both see the same machine: this box's speed swings 20-30 %
    for minutes at a time, and only a yardstick run *during* the phase
    tracks that.
    """
    ops = workload.ops
    size = -(-len(ops) // CHUNKS)
    work_s = calibration_s = 0.0
    loops = 0
    for lo in range(0, len(ops), size):
        t0 = perf_counter()
        for op in ops[lo : lo + size]:
            try:
                step(op)
            except Exception as exc:  # an op that raises is a failed op
                workload.fail(f"{op[0]!r}: {exc!r}")
        t1 = perf_counter()
        loops += calibrate()
        work_s += t1 - t0
        calibration_s += perf_counter() - t1
    return work_s, calibration_s, loops


# ----------------------------------------------------------------------


class VldSyncUpdate(Workload):
    """Random synchronous 4 KB overwrites on a 70 %-full VLD (Fig. 8/9)."""

    name = "vld_sync_update"
    op_unit = "write_block"
    OPS = 10_000
    UTILIZATION = 0.70
    IDLE_EVERY = 256
    IDLE_SECONDS = 0.25

    def __init__(self, seed: int, scale: float, wrap: Wrap) -> None:
        super().__init__()
        rng = random.Random(seed)
        disk = Disk(ST19101)
        self.vld = VirtualLogDisk(disk)
        self.disks, self.vlds = [disk], [self.vld]
        self.schedulers = [self.vld.scheduler]
        self.clock = disk.clock
        live = rng.sample(
            range(self.vld.num_blocks),
            int(self.UTILIZATION * self.vld.physical_blocks),
        )
        self.oracle = {lba: lba & 255 for lba in live}
        for lba in sorted(live):
            self.vld.write_block(lba, PAGES[lba & 255])
        self.ops = [
            ("write", rng.choice(live), rng.randrange(256))
            for _ in range(max(1, int(self.OPS * scale)))
        ]
        self.issued = 0

    def step(self, op: tuple) -> None:
        _, lba, x = op
        clock = self.clock
        start = clock.now
        self.vld.write_block(lba, PAGES[x])
        self.samples.append(clock.now - start)
        self.oracle[lba] = x
        self.user_bytes += BLOCK
        self.issued += 1
        if self.issued % self.IDLE_EVERY == 0:
            self.vld.idle(self.IDLE_SECONDS)

    def verify(self) -> None:
        for lba in sorted(self.oracle)[::VERIFY_EVERY]:
            data, _ = self.vld.read_block(lba)
            if data != PAGES[self.oracle[lba]]:
                self.fail(f"block {lba} read back wrong")


class FsSmallFiles(Workload):
    """Small-file create/read/delete, then random sync updates, on
    UFS-over-VLD and LFS-over-regular-disk (Fig. 6, 8, Table 2)."""

    name = "fs_small_files"
    op_unit = "fs call"
    STACK_NAMES = ("ufs-vld", "lfs-regular")
    FILES = 250
    FILE_BYTES = 1024
    UPDATES = 1000
    TARGET = "/target"
    TARGET_BYTES = 12 << 20

    def __init__(self, seed: int, scale: float, wrap: Wrap) -> None:
        super().__init__()
        rng = random.Random(seed)
        self.fss = []
        files = max(1, int(self.FILES * scale))
        updates = max(1, int(self.UPDATES * scale))
        target_blocks = self.TARGET_BYTES // BLOCK
        #: (stack, target block) -> byte, for the post-phase check.
        self.updated: Dict[Tuple[int, int], int] = {}
        for index, stack_name in enumerate(self.STACK_NAMES):
            fs, disk, device = wrap("harness.build_stack", build_stack)(
                STACKS[stack_name]
            )
            prepare_file(fs, self.TARGET, self.TARGET_BYTES)
            self.fss.append(fs)
            self.disks.append(disk)
            self.schedulers.append(device.scheduler)
            if isinstance(device, VirtualLogDisk):
                self.vlds.append(device)
            names = [f"/small{i:05d}" for i in range(files)]
            fill = {name: rng.randrange(256) for name in names}
            for name in names:
                self.ops.append(("create", index, name))
                self.ops.append(("write", index, name, fill[name]))
            self.ops.append(("sync", index))
            self.ops.extend(("read", index, name, fill[name]) for name in names)
            self.ops.extend(("unlink", index, name) for name in names)
            self.ops.extend(
                ("update", index, rng.randrange(target_blocks),
                 rng.randrange(256))
                for _ in range(updates)
            )

    def step(self, op: tuple) -> None:
        kind, index = op[0], op[1]
        fs = self.fss[index]
        clock = fs.clock
        start = clock.now
        if kind == "create":
            fs.create(op[2])
        elif kind == "write":
            fs.write(op[2], 0, PAGES[op[3]][: self.FILE_BYTES])
            self.user_bytes += self.FILE_BYTES
        elif kind == "sync":
            fs.sync()
            fs.drop_caches()
        elif kind == "read":
            data, _ = fs.read(op[2], 0, self.FILE_BYTES)
            if data != PAGES[op[3]][: self.FILE_BYTES]:
                self.fail(f"{op[2]} read back wrong")
        elif kind == "unlink":
            fs.unlink(op[2])
        else:
            fs.write(self.TARGET, op[2] * BLOCK, PAGES[op[3]], sync=True)
            self.updated[(index, op[2])] = op[3]
            self.user_bytes += BLOCK
        self.samples.append(clock.now - start)

    def verify(self) -> None:
        for index, block in sorted(self.updated)[::VERIFY_EVERY]:
            data, _ = self.fss[index].read(self.TARGET, block * BLOCK, BLOCK)
            if data != PAGES[self.updated[(index, block)]]:
                self.fail(f"stack {index} target block {block} wrong")

    def extra_counters(self) -> Dict[str, float]:
        ufs, lfs = self.fss
        return {
            "ufs.buffer_cache.hits": ufs.cache.hits,
            "ufs.buffer_cache.misses": ufs.cache.misses,
            "lfs.cleaner.segments_cleaned": lfs.cleaner.segments_cleaned,
            "lfs.cleaner.blocks_copied": lfs.cleaner.blocks_copied,
        }


class StackMixedQ4(Workload):
    """Mixed reads and writes through NVWal -> 4-shard volume -> VLDs
    with depth-4 SATF queues."""

    name = "stack_mixed_q4"
    op_unit = "device call"
    OPS = 8_000
    SHARDS = 4
    #: Share of the volume's address range the workload touches (and
    #: set-up fills), which bounds the shards' utilization.
    WORKING_SET = 0.60
    PREFILL_RUN = 64
    IDLE_EVERY = 64
    IDLE_SECONDS = 0.05

    def __init__(self, seed: int, scale: float, wrap: Wrap) -> None:
        super().__init__()
        rng = random.Random(seed)
        self.volume, devices, self.disks = build_sharded_volume(
            shards=self.SHARDS, num_cylinders=0, queue_depth=4, sched="satf"
        )
        self.vlds = list(devices)
        self.schedulers = [vld.scheduler for vld in self.vlds]
        self.clock = self.disks[0].clock
        self.wal = NVWal(self.volume, NVM_SPECS["nvdimm"], clock=self.clock)
        limit = int(self.volume.num_blocks * self.WORKING_SET)
        limit -= limit % self.PREFILL_RUN
        self.oracle = {lba: lba & 255 for lba in range(limit)}
        for lba in range(0, limit, self.PREFILL_RUN):
            self.volume.write_blocks(
                lba,
                self.PREFILL_RUN,
                b"".join(
                    PAGES[b & 255] for b in range(lba, lba + self.PREFILL_RUN)
                ),
            )
        for _ in range(max(1, int(self.OPS * scale))):
            draw = rng.random()
            if draw < 0.6:
                kind, count = "write", 1
            elif draw < 0.8:
                kind, count = "write", rng.randint(2, 7)
            else:
                kind, count = "read", rng.randint(1, 7)
            lba = rng.randrange(limit - count)
            fills = tuple(rng.randrange(256) for _ in range(count))
            self.ops.append((kind, lba, count, fills))
        self.issued = 0
        self.reads = 0

    def step(self, op: tuple) -> None:
        kind, lba, count, fills = op
        clock = self.clock
        if kind == "write":
            data = b"".join([PAGES[x] for x in fills])
            start = clock.now
            self.wal.write_blocks(lba, count, data)
            self.samples.append(clock.now - start)
            for offset, x in enumerate(fills):
                self.oracle[lba + offset] = x
            self.user_bytes += count * BLOCK
        else:
            start = clock.now
            data, _ = self.wal.read_blocks(lba, count)
            self.samples.append(clock.now - start)
            self.reads += 1
            if self.reads % VERIFY_EVERY == 0:
                oracle = self.oracle
                expected = b"".join(
                    [PAGES[oracle[b]] for b in range(lba, lba + count)]
                )
                if data != expected:
                    self.fail(f"blocks [{lba}, {lba + count}) read back wrong")
        self.issued += 1
        if self.issued % self.IDLE_EVERY == 0:
            self.wal.idle(self.IDLE_SECONDS)

    def extra_counters(self) -> Dict[str, float]:
        out = _wal_counters(self.wal)
        for shard, calls in enumerate(self.volume.shard_calls):
            out[f"volume.shard_calls.{shard}"] = calls
        return out


class MultihostEngine(Workload):
    """Eight closed-loop hosts over four raw disks on the event engine:
    no virtual log, no NVM tier, no file system."""

    name = "multihost_engine"
    op_unit = "host request"
    HOSTS = 8
    SHARDS = 4
    #: One ``run_multihost`` call is opaque to the driver, so the
    #: requests are spread over several calls (each with its own seed)
    #: to let the calibration bursts in between.
    CALLS = 14
    REQUESTS_PER_HOST_PER_CALL = 500
    REQUEST_SECTORS = 8

    def __init__(self, seed: int, scale: float, wrap: Wrap) -> None:
        super().__init__()
        rng = random.Random(seed)
        self.run_multihost = wrap("hosts.multihost", run_multihost)
        self.per_host = max(1, int(self.REQUESTS_PER_HOST_PER_CALL * scale))
        self.ops = [
            ("run_multihost", rng.randrange(1 << 30))
            for _ in range(max(2, int(self.CALLS * scale)))
        ]
        self.reports: List[Dict] = []

    def step(self, op: tuple) -> None:
        # trace=True: the report carries histograms, not samples; the
        # event trace is the only public record of when each request
        # was submitted and completed.
        self.reports.append(
            self.run_multihost(
                ST19101,
                hosts=self.HOSTS,
                shards=self.SHARDS,
                policy="satf",
                workload="mixed",
                requests_per_host=self.per_host,
                request_sectors=self.REQUEST_SECTORS,
                seed=op[1],
                trace=True,
            )
        )
        # run_multihost keeps its disks to itself and stores no data:
        # each serviced request writes exactly request_sectors once.
        self.user_bytes += self.HOSTS * self.per_host * (
            self.REQUEST_SECTORS * 512
        )

    @property
    def attempted(self) -> int:
        return len(self.ops) * self.HOSTS * self.per_host

    def verify(self) -> None:
        """Rebuild every request's response time from the event traces
        (a host submits when its think timer fires and resumes when its
        request's completion signal wakes it) and check each report
        against its trace."""
        per_call = self.HOSTS * self.per_host
        for report in self.reports:
            submitted: Dict[str, float] = {}
            samples = []
            for at, _seq, event in report.pop("trace"):
                if event.endswith(".timer"):
                    submitted[event[: -len(".timer")]] = at
                elif ".completed->" in event:
                    samples.append(at - submitted[event.rpartition("->")[2]])
            self.samples.extend(samples)
            shards = report["per_shard"]["shards"]
            mean_ms = sum(samples) / max(1, len(samples)) * 1e3
            if not (
                report["requests"] == per_call == len(samples)
                and sum(row["requests"] for row in shards) == per_call
                and all(row["requests"] > 0 for row in shards)
                and abs(mean_ms - report["mean_response_ms"]) < 1e-6 * mean_ms
            ):
                self.failed += per_call
                self.first_error = "multihost report disagrees with its trace"

    def sim_seconds(self) -> float:
        return sum(report["elapsed_seconds"] for report in self.reports)

    def counters(self) -> Dict[str, float]:
        out = super().counters()
        reports = self.reports
        requests = sum(report["requests"] for report in reports)
        busy = sum(
            sum(report["disk_busy_seconds"].values()) for report in reports
        )
        out.update(
            {
                "disk.writes": requests,
                "disk.sectors_written": requests * self.REQUEST_SECTORS,
                "disk.busy_s": busy,
                "sched.serviced": requests,
                "sched.busy_s": busy,
                "sched.max_outstanding": max(
                    [report["max_outstanding"] for report in reports],
                    default=0,
                ),
                "sched.service_s": sum(
                    report["mean_service_ms"] * report["requests"] / 1e3
                    for report in reports
                ),
                "sched.response_s": sum(
                    report["mean_response_ms"] * report["requests"] / 1e3
                    for report in reports
                ),
                "sim.engine.events_fired": sum(
                    report["events"] for report in reports
                ),
                "hosts.think_s": sum(
                    report["think_seconds"] for report in reports
                ),
                "hosts.hidden_think_s": sum(
                    report["hidden_think_seconds"] for report in reports
                ),
            }
        )
        return out


class CrashRecover(Workload):
    """Write, lose power, recover, read everything back -- on a bare VLD
    and on NVWal over a VLD, by power-down record and by full scan."""

    name = "crash_recover"
    op_unit = "cycle"
    CYCLES = 16
    WRITES_PER_CYCLE = 300

    def __init__(self, seed: int, scale: float, wrap: Wrap) -> None:
        super().__init__()
        rng = random.Random(seed)
        bare = VirtualLogDisk(Disk(ST19101))
        backing = VirtualLogDisk(Disk(ST19101))
        self.wal = NVWal(backing)
        self.devices = [bare, self.wal]
        self.vlds = [bare, backing]
        self.disks = [bare.disk, backing.disk]
        self.schedulers = [bare.scheduler, backing.scheduler]
        self.oracles: List[Dict[int, int]] = [{}, {}]
        #: Each device's recover() outcomes (the VLD's own, for both).
        self.vld_outcomes: list = []
        self.replayed_blocks = 0
        # Half the address space, so utilization (and with it the cost
        # of a cycle) stays bounded however many cycles run.
        span_blocks = bare.num_blocks // 2
        writes = max(1, int(self.WRITES_PER_CYCLE * scale))
        for cycle in range(max(4, int(self.CYCLES * scale))):
            # All four combinations: device alternates every cycle, the
            # orderly power-down every two.
            self.ops.append(
                (
                    "cycle",
                    cycle % 2,
                    (cycle // 2) % 2 == 0,
                    [
                        (rng.randrange(span_blocks), rng.randrange(256))
                        for _ in range(writes)
                    ],
                )
            )

    def step(self, op: tuple) -> None:
        _, index, orderly, writes = op
        device, oracle = self.devices[index], self.oracles[index]
        for lba, x in writes:
            device.write_block(lba, PAGES[x])
            oracle[lba] = x  # acknowledged: must survive
        self.user_bytes += len(writes) * BLOCK
        if orderly:
            device.power_down()
        device.crash()
        outcome = device.recover()
        self.samples.append(outcome.elapsed)
        if index:
            self.replayed_blocks += outcome.replayed_blocks
            outcome = outcome.inner
        self.vld_outcomes.append(outcome)
        for lba, x in oracle.items():
            data, _ = device.read_block(lba)
            if data != PAGES[x]:
                self.fail(f"device {index} lost block {lba}")
                break

    def extra_counters(self) -> Dict[str, float]:
        outcomes = self.vld_outcomes
        return {
            **_wal_counters(self.wal),
            "nvm.recover.replayed_blocks": self.replayed_blocks,
            "vlog.recover.count": len(outcomes),
            "vlog.recover.scans": sum(o.scanned for o in outcomes),
            "vlog.recover.blocks_scanned": sum(
                o.blocks_scanned for o in outcomes
            ),
            "vlog.recover.records_read": sum(o.records_read for o in outcomes),
            "vlog.recover.sim_s": sum(o.elapsed for o in outcomes),
        }


WORKLOADS = {
    cls.name: cls
    for cls in (
        VldSyncUpdate,
        FsSmallFiles,
        StackMixedQ4,
        MultihostEngine,
        CrashRecover,
    )
}
