"""N hosts x M disks on the event engine.

The ROADMAP scale-out item: run several closed-loop host processes, each
with its own think time and seeded request stream, against a bank of
independent device stacks (disk + request scheduler), all on one
:class:`~repro.sim.engine.EventEngine`.  Requests stripe across the
disks; each disk services its own queue as an engine process, so host
think time genuinely overlaps disk service -- and the report measures
that overlap *exactly* from the recorded think/service intervals rather
than inferring it from clock gaps.

Determinism: every host draws from its own ``random.Random`` stream and
the engine breaks event ties by schedule order, so a run is a pure
function of its arguments -- byte-identical across repeats and across
process boundaries (the ``--jobs N`` sweep).  The harness's queued
driver draws from :func:`request_targets` too, seeded like host 0, so
the single-host fifo configuration replays the synchronous depth-1 path
call-for-call (the identity test pins this).

Tail latency: service and response distributions are reported at
p50/p95/p99/p999 -- under concurrency the p99/p999 response tail is
where queueing shows first, which is the point of running more than one
host.
"""

from __future__ import annotations

import random
from itertools import chain
from math import isfinite
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.blockdev.interpose import FaultPlane
from repro.disk.disk import Disk
from repro.disk.specs import DiskSpec
from repro.sched.scheduler import DiskScheduler
from repro.sim.engine import (
    EventEngine,
    intersection_seconds,
    measure,
    measure_within,
    merge_intervals,
)
from repro.sim.metrics import LatencyHistogram

QUEUE_WORKLOADS = ("random-update", "sequential", "mixed")

#: Sectors per queued write: one aligned 4 KB block.
REQUEST_SECTORS = 8


def request_targets(
    rng: random.Random, workload: str, units: int, count: int
) -> List[int]:
    """``count`` aligned write targets in ``[0, units)`` from ``rng``:
    uniformly random (``random-update``, the seek-dominated case queue
    reordering helps most), ascending (``sequential``) or alternating the
    two (``mixed``).  The start is drawn first for every workload."""
    if workload not in QUEUE_WORKLOADS:
        raise ValueError(
            f"unknown workload {workload!r}; known: "
            + ", ".join(QUEUE_WORKLOADS)
        )
    start = rng.randrange(units)
    if workload == "random-update":
        return [rng.randrange(units) for _ in range(count)]
    if workload == "sequential":
        return [(start + i) % units for i in range(count)]
    # mixed: odd requests random, even ones stepping on from the start.
    return [rng.randrange(units) if i % 2 else (start + 1 + i // 2) % units
            for i in range(count)]


def run_multihost(
    spec: DiskSpec,
    hosts: int = 4,
    disks: int = 1,
    requests_per_host: int = 200,
    request_sectors: int = REQUEST_SECTORS,
    think_seconds: Union[float, Sequence[float]] = 0.0002,
    workload: str = "random-update",
    policy: str = "fifo",
    seed: int = 3,
    trace: bool = False,
    shards: Optional[int] = None,
    shard_slow: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """Drive ``hosts`` closed-loop writers against ``disks`` device stacks.

    Each host thinks (a real engine timer), submits one striped write of
    ``request_sectors`` sectors, and waits for its completion event --
    the classic closed loop, so each host keeps at most one request in
    flight and concurrency comes from the host count.  ``think_seconds``
    may be a scalar or one value per host (per-client think times).
    Each host's targets are :func:`request_targets` of ``workload``,
    drawn from ``random.Random(seed + 1000003 * host)``.

    Returns a report with mean/p50/p95/p99/p999 service and response
    times (milliseconds), throughput, per-disk busy time, and the
    overlap metrics: ``hidden_think_seconds`` is the aggregate host
    think time that fell inside disk busy time (exact interval
    intersection; zero for one host at depth 1, positive once hosts
    overlap each other's service).  With ``trace=True`` the engine's
    event trace rides along as ``report["trace"]`` for determinism diffs:
    an :class:`~repro.sim.engine.EventTrace`, which stores the ``(time,
    seq, name)`` rows as columns and reads, compares and prints as their
    list.

    Sharded mode (``shards=N``): the disk bank is interpreted as the N
    fault domains of a sharded volume -- same striping, but the report
    gains a ``per_shard`` section (per-shard request counts and
    response-time tails) and, when ``shard_slow`` marks one shard
    fail-slow (``{"shard": i, "factor": f, "after": a, "ops": n}`` --
    a :class:`~repro.blockdev.interpose.FaultPlane` window of that
    shard's disk services), a ``degraded_window`` section measuring
    completed requests, throughput, and per-shard busy time *inside*
    the limping window.  ``shards`` replaces ``disks``; the non-sharded
    report keys are unchanged (the identity tests stay pinned).
    """
    if shards is not None:
        if disks != 1:
            raise ValueError("pass shards= or disks=, not both")
        if shards <= 0:
            raise ValueError("shard count must be positive")
        disks = shards
    elif shard_slow is not None:
        raise ValueError("shard_slow requires shards=")
    if hosts <= 0 or disks <= 0:
        raise ValueError("host and disk counts must be positive")
    if requests_per_host <= 0:
        raise ValueError("request count must be positive")
    if request_sectors <= 0:
        raise ValueError("request_sectors must be positive")
    thinks = _per_host_thinks(think_seconds, hosts)

    stacks = [Disk(spec, store_data=False) for _ in range(disks)]
    # One addressable stripe unit per aligned run, across all disks:
    # target t lives on disk t % disks at aligned run t // disks.
    disk_sectors = stacks[0].geometry.total_sectors
    if request_sectors > disk_sectors:
        raise ValueError(
            f"request_sectors={request_sectors} exceeds a disk's {disk_sectors} sectors"
        )
    aligned_per_disk = disk_sectors // request_sectors
    engine = EventEngine(trace=trace)
    schedulers = [
        DiskScheduler(disk, policy=policy, queue_depth=1) for disk in stacks
    ]
    bank = "shard" if shards is not None else "disk"
    for index, scheduler in enumerate(schedulers):
        scheduler.attach_engine(engine, name=f"{bank}{index}")
    if shard_slow is not None:
        slow_shard = int(shard_slow["shard"])  # type: ignore[arg-type]
        if not 0 <= slow_shard < disks:
            raise ValueError(f"shard_slow shard {slow_shard} out of range")
        FaultPlane(
            slow_factor=float(shard_slow["factor"]),  # type: ignore[arg-type]
            slow_after_ops=int(shard_slow.get("after", 0)),  # type: ignore[arg-type]
            slow_duration_ops=(
                int(shard_slow["ops"])  # type: ignore[arg-type]
                if shard_slow.get("ops") is not None
                else None
            ),
        ).install(stacks[slow_shard])

    stripe_units = aligned_per_disk * disks
    streams = [
        request_targets(random.Random(seed + 1000003 * index), workload,
                        stripe_units, requests_per_host)
        for index in range(hosts)
    ]

    def host(index: int):
        think = thinks[index]
        clock = engine.clock
        # The clock is monotone, so a think interval is well-formed and
        # recording it is an append (a zero-length one is dropped).
        think_spans = engine.intervals.series("think", f"host{index}")
        for target in streams[index]:
            if think > 0.0:
                start = clock.now
                yield think
                end = clock.now
                if end > start:
                    think_spans.append((start, end))
            scheduler = schedulers[target % disks]
            sector = (target // disks) * request_sectors
            req = scheduler.submit("write", sector, request_sectors)
            if not req.done:
                assert req.completed is not None
                yield req.completed

    for index in range(hosts):
        engine.spawn(host(index), name=f"host{index}")
    engine.run()
    for scheduler in schedulers:
        scheduler.close()
    engine.run()  # let the disk processes terminate

    return _report(
        engine, schedulers, hosts, disks, requests_per_host, trace,
        shards=shards,
    )


def _per_host_thinks(
    think_seconds: Union[float, Sequence[float]], hosts: int
) -> List[float]:
    if isinstance(think_seconds, (int, float)):
        thinks = [float(think_seconds)] * hosts
    else:
        thinks = [float(value) for value in think_seconds]
        if len(thinks) != hosts:
            raise ValueError(
                f"got {len(thinks)} think times for {hosts} hosts"
            )
    for value in thinks:
        if not (value >= 0.0 and isfinite(value)):  # negative, NaN or infinite
            raise ValueError(
                f"think_seconds must be finite and non-negative, got {value!r}"
            )
    return thinks


def _report(
    engine: EventEngine,
    schedulers: List[DiskScheduler],
    hosts: int,
    disks: int,
    requests_per_host: int,
    trace: bool,
    shards: Optional[int] = None,
) -> Dict[str, object]:
    service = LatencyHistogram()
    response = LatencyHistogram()
    serviced = 0
    for scheduler in schedulers:
        service.merge(scheduler.service_times)
        response.merge(scheduler.response_times)
        serviced += scheduler.serviced
    # Each interval family merged once, per key; the union of disk busy
    # time is the merge of the per-disk unions.
    thinking = engine.intervals.merged_by_key("think")
    busy_by_disk = engine.intervals.merged_by_key("service")
    busy = merge_intervals(chain.from_iterable(busy_by_disk.values()))
    elapsed = engine.now
    requests = hosts * requests_per_host
    assert serviced == requests

    service_pct = service.percentiles()
    response_pct = response.percentiles()
    report: Dict[str, object] = {
        "hosts": hosts,
        "disks": disks,
        "requests": requests,
        "elapsed_seconds": elapsed,
        "requests_per_second": requests / elapsed if elapsed > 0 else 0.0,
        "mean_service_ms": service.mean() * 1e3,
        "mean_response_ms": response.mean() * 1e3,
        # Aggregate host think time that fell inside disk busy time:
        # the overlap the event loop makes real (and measurable).
        "hidden_think_seconds": sum(
            intersection_seconds(spans, busy) for spans in thinking.values()
        ),
        "think_seconds": sum(measure(spans) for spans in thinking.values()),
        "disk_busy_seconds": {
            key: measure(spans) for key, spans in busy_by_disk.items()
        },
        "max_outstanding": max(s.max_outstanding for s in schedulers),
        "events": engine.events_fired,
    }
    for name, value in service_pct.items():
        report[f"{name}_service_ms"] = value * 1e3
    for name, value in response_pct.items():
        report[f"{name}_response_ms"] = value * 1e3
    if shards is not None:
        report["shards"] = shards
        report["per_shard"] = _per_shard_report(
            engine, schedulers, busy_by_disk
        )
    if trace and engine.trace is not None:
        report["trace"] = engine.trace
    return report


def _per_shard_report(
    engine: EventEngine,
    schedulers: List[DiskScheduler],
    busy_by_disk: Dict[str, List[Tuple[float, float]]],
) -> Dict[str, object]:
    """Per-shard tails, plus degraded-window accounting when one shard
    ran fail-slow (its plane's slow span is the window; every shard's
    busy time and completions are clipped to it)."""
    planes: List[Optional[FaultPlane]] = [s.disk.faults for s in schedulers]
    window = next((p.slow_span for p in planes if p and p.slow_span), None)
    rows: List[Dict[str, object]] = []
    for scheduler, plane in zip(schedulers, planes):
        pct = scheduler.response_times.percentiles()
        row: Dict[str, object] = {
            "shard": scheduler.name,
            "requests": scheduler.serviced,
            "busy_seconds": scheduler.busy_seconds,
            "ops_slowed": plane.ops_slowed if plane else 0,
            "slow_extra_seconds": plane.slow_extra_seconds if plane else 0.0,
            "mean_response_ms": scheduler.response_times.mean() * 1e3,
        }
        for name, value in pct.items():
            row[f"{name}_response_ms"] = value * 1e3
        if window is not None:
            row["busy_in_window_seconds"] = measure_within(
                busy_by_disk.get(scheduler.name, []), window
            )
            # Raw intervals, one per service: unions fuse adjacent ones.
            row["completed_in_window"] = sum(
                1
                for _, at in engine.intervals.series("service", scheduler.name)
                if window[0] <= at <= window[1]
            )
        rows.append(row)
    out: Dict[str, object] = {"shards": rows}
    if window is not None:
        seconds = window[1] - window[0]
        completed = sum(
            int(row["completed_in_window"]) for row in rows  # type: ignore[arg-type]
        )
        out["degraded_window"] = {
            "start": window[0],
            "end": window[1],
            "seconds": seconds,
            "completed": completed,
            "requests_per_second": (
                completed / seconds if seconds > 0 else 0.0
            ),
        }
    return out


def format_report(report: Dict[str, object]) -> str:
    """A compact human-readable rendering of a multihost report."""
    busy = report["disk_busy_seconds"]
    assert isinstance(busy, dict)
    lines = [
        (
            f"{report['hosts']} host(s) x {report['disks']} disk(s): "
            f"{report['requests']} requests in "
            f"{float(report['elapsed_seconds']):.4f}s "
            f"({float(report['requests_per_second']):.0f} req/s)"
        ),
        (
            "service ms: "
            f"mean={float(report['mean_service_ms']):.3f} "
            f"p50={float(report['p50_service_ms']):.3f} "
            f"p95={float(report['p95_service_ms']):.3f} "
            f"p99={float(report['p99_service_ms']):.3f} "
            f"p999={float(report['p999_service_ms']):.3f}"
        ),
        (
            "response ms: "
            f"mean={float(report['mean_response_ms']):.3f} "
            f"p50={float(report['p50_response_ms']):.3f} "
            f"p95={float(report['p95_response_ms']):.3f} "
            f"p99={float(report['p99_response_ms']):.3f} "
            f"p999={float(report['p999_response_ms']):.3f}"
        ),
        (
            f"overlap: hidden_think={float(report['hidden_think_seconds']):.4f}s "
            f"of {float(report['think_seconds']):.4f}s think; busy "
            + " ".join(
                f"{key}={float(value):.4f}s" for key, value in busy.items()
            )
        ),
    ]
    per_shard = report.get("per_shard")
    if isinstance(per_shard, dict):
        for row in per_shard["shards"]:
            line = (
                f"{row['shard']}: {row['requests']} reqs "
                f"response p50={float(row['p50_response_ms']):.3f} "
                f"p99={float(row['p99_response_ms']):.3f} "
                f"p999={float(row['p999_response_ms']):.3f}ms "
                f"busy={float(row['busy_seconds']):.4f}s"
            )
            if row["ops_slowed"]:
                line += (
                    f" slowed={row['ops_slowed']} "
                    f"(+{float(row['slow_extra_seconds']):.4f}s)"
                )
            lines.append(line)
        window = per_shard.get("degraded_window")
        if window is not None:
            lines.append(
                f"degraded window: {float(window['seconds']):.4f}s, "
                f"{window['completed']} completed "
                f"({float(window['requests_per_second']):.0f} req/s)"
            )
    return "\n".join(lines)
