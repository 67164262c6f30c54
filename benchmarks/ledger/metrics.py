"""Metric definitions: names, units, directions, bounds, and how the
per-layer numbers are derived from public counters and span totals.

``BENCHMARK.json`` at the repo root repeats the ``END_TO_END`` and
``PER_LAYER`` tables (the self-test checks they agree).  Every number
is labelled by clock: **host** is what the person running the simulator
waits for, **sim** is what the modelled disk would take.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List, Mapping, Tuple

#: name, unit, better, bound, clock.  ``bound`` is the share of the
#: baseline's value by which a metric may worsen before it counts as a
#: regression.  The sim bounds are for comparisons *across seeds* (what
#: the acceptance driver does); with the same seed every sim metric
#: repeats exactly and ``compare.py`` demands just that.
END_TO_END: Tuple[Tuple[str, str, str, float, str], ...] = (
    ("setup_s", "s", "lower", 0.25, "host"),
    ("host_ops_per_s", "ops/s", "higher", 0.25, "host"),
    ("peak_rss_mb", "MiB", "lower", 0.10, "host"),
    ("sim_op_ms_mean", "ms", "lower", 0.15, "sim"),
    ("sim_op_ms_p99", "ms", "lower", 0.25, "sim"),
    ("sim_ops_per_sim_s", "ops/s", "higher", 0.15, "sim"),
    ("phys_bytes_per_user_byte", "ratio", "lower", 0.10, "sim"),
    ("failed_op_ratio", "ratio", "lower", 0.0, "-"),
    ("traced_slowdown", "ratio", "lower", 0.25, "host"),
)

#: Always 0 on a healthy run, so it cannot be a driver-gated metric (the
#: contract wants metrics that are never 0): the result line carries it
#: as ``failed``/``attempted`` instead, and ``BENCHMARK.json`` omits it.
NOT_IN_BENCHMARK_JSON = ("failed_op_ratio",)

#: End-to-end metrics that repeat exactly for a given seed.
EXACT = (
    "sim_op_ms_mean",
    "sim_op_ms_p99",
    "sim_ops_per_sim_s",
    "phys_bytes_per_user_byte",
    "failed_op_ratio",
)

#: name, unit, better.  Host-clock unless the name says ``sim``; counts
#: and ratios come from the layers' own counters and repeat exactly.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("disk.write.calls", "count", "lower"),
    ("disk.write.self_us_per_call", "us", "lower"),
    ("disk.read.calls", "count", "lower"),
    ("disk.read.self_us_per_call", "us", "lower"),
    ("disk.sectors_written", "count", "lower"),
    ("disk.sectors_read", "count", "lower"),
    ("disk.sim_busy_s", "s", "lower"),
    ("disk.trackbuf.hit_ratio", "ratio", "higher"),
    ("disk.freemap.query.calls", "count", "lower"),
    ("disk.freemap.query.self_us_per_call", "us", "lower"),
    ("blockdev.regular.self_us_per_call", "us", "lower"),
    ("blockdev.nvmdev.stores", "count", "lower"),
    ("blockdev.nvmdev.flushes", "count", "lower"),
    ("vlog.vld.write.calls", "count", "lower"),
    ("vlog.vld.write.self_us_per_call", "us", "lower"),
    ("vlog.vld.read.calls", "count", "lower"),
    ("vlog.vld.read.self_us_per_call", "us", "lower"),
    ("vlog.allocator.calls", "count", "lower"),
    ("vlog.allocator.self_us_per_call", "us", "lower"),
    ("vlog.allocator.fallback_ratio", "ratio", "lower"),
    ("vlog.log.appends", "count", "lower"),
    ("vlog.log.append.self_us_per_call", "us", "lower"),
    ("vlog.log.relocations", "count", "lower"),
    ("vlog.compactor.host_s", "s", "lower"),
    ("vlog.compactor.blocks_moved", "count", "lower"),
    ("vlog.compactor.tracks_compacted", "count", "higher"),
    ("vlog.compactor.moved_per_track_reclaimed", "ratio", "lower"),
    ("vlog.recover.calls", "count", "lower"),
    ("vlog.recover.host_ms_per_call", "ms", "lower"),
    ("vlog.recover.sim_s_per_call", "s", "lower"),
    ("vlog.recover.scan_ratio", "ratio", "lower"),
    ("vlog.recover.blocks_scanned_per_host_s", "1/s", "higher"),
    ("vlog.recover.records_read", "count", "lower"),
    ("sched.submit.calls", "count", "lower"),
    ("sched.self_us_per_call", "us", "lower"),
    ("sched.pick.self_us_per_call", "us", "lower"),
    ("sched.max_outstanding", "count", "lower"),
    ("sched.sim_busy_s", "s", "lower"),
    ("sched.sim_queue_wait_ms_mean", "ms", "lower"),
    ("sim.engine.events_fired", "count", "lower"),
    ("sim.engine.events_per_host_s", "1/s", "higher"),
    ("sim.engine.run.self_s", "s", "lower"),
    ("hosts.multihost.self_s", "s", "lower"),
    ("hosts.hidden_think_ratio", "ratio", "higher"),
    ("volume.write.self_us_per_call", "us", "lower"),
    ("volume.read.self_us_per_call", "us", "lower"),
    ("volume.shard_calls_per_op", "ratio", "lower"),
    ("volume.shard_skew", "ratio", "lower"),
    ("nvm.wal.write.self_us_per_call", "us", "lower"),
    ("nvm.wal.read.self_us_per_call", "us", "lower"),
    ("nvm.wal.absorb_ratio", "ratio", "higher"),
    ("nvm.wal.destage.host_s", "s", "lower"),
    ("nvm.wal.destaged_blocks", "count", "lower"),
    ("nvm.wal.pressure_destages", "count", "lower"),
    ("nvm.wal.log_resets", "count", "lower"),
    ("nvm.wal.sim_ack_us_mean", "us", "lower"),
    ("nvm.recover.host_ms_per_call", "ms", "lower"),
    ("nvm.recover.replayed_blocks", "count", "lower"),
    ("ufs.calls", "count", "lower"),
    ("ufs.self_us_per_call", "us", "lower"),
    ("ufs.buffer_cache.hit_ratio", "ratio", "higher"),
    ("lfs.calls", "count", "lower"),
    ("lfs.self_us_per_call", "us", "lower"),
    ("lfs.cleaner.segments_cleaned", "count", "lower"),
    ("lfs.cleaner.blocks_copied", "count", "lower"),
    ("harness.build_stack.host_ms", "ms", "lower"),
    ("host.driver.self_us_per_op", "us", "lower"),
    ("host.op_us_p50", "us", "lower"),
    ("host.op_us_p99", "us", "lower"),
    ("host.gc_collections", "count", "lower"),
    ("host.calibration_ops_per_s", "ops/s", "higher"),
    ("host.calibration_spread", "ratio", "lower"),
)

SpanTable = Mapping[str, Mapping[str, float]]


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, or 0.0 for an idle layer."""
    return numerator / denominator if denominator else 0.0


def nearest_rank(ordered: List[float], percent: int) -> float:
    """Nearest-rank percentile of an ascending list (0.0 when empty)."""
    if not ordered:
        return 0.0
    return ordered[max(1, -(-percent * len(ordered) // 100)) - 1]


def sim_digest(sim: Mapping[str, float], counts: Mapping[str, float],
               attempted: int, failed: int) -> str:
    """sha256 over every simulated value and every count of a pass:
    equal digests mean the modelled system did exactly the same thing."""
    payload = json.dumps(
        {"sim": sim, "counts": counts, "attempted": attempted,
         "failed": failed},
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def per_layer(
    counts: Mapping[str, float],
    spans: SpanTable,
    setup_spans: SpanTable,
    ops: int,
    op_us: List[float],
    gc_collections: int,
) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric a traced pass can know (the two
    calibration metrics span passes and are added by ``run.py``).  A
    layer the workload bypasses reports zeros."""

    def calls(*names: str) -> float:
        return sum(spans.get(n, {}).get("calls", 0) for n in names)

    def self_s(*names: str) -> float:
        return sum(spans.get(n, {}).get("self_s", 0.0) for n in names)

    def total_s(name: str) -> float:
        return spans.get(name, {}).get("total_s", 0.0)

    def self_us_per_call(*names: str) -> float:
        return ratio(self_s(*names) * 1e6, calls(*names))

    def count(name: str) -> float:
        return counts.get(name, 0)

    shard_calls = [
        value for key, value in sorted(counts.items())
        if key.startswith("volume.shard_calls.")
    ]
    sched = ("sched.submit", "sched.service", "sched.barrier")
    ordered_op_us = sorted(op_us)
    out = {
        "disk.write.calls": calls("disk.write"),
        "disk.write.self_us_per_call": self_us_per_call("disk.write"),
        "disk.read.calls": calls("disk.read"),
        "disk.read.self_us_per_call": self_us_per_call("disk.read"),
        "disk.sectors_written": count("disk.sectors_written"),
        "disk.sectors_read": count("disk.sectors_read"),
        "disk.sim_busy_s": count("disk.busy_s"),
        "disk.trackbuf.hit_ratio": ratio(
            count("disk.trackbuf.hits"),
            count("disk.trackbuf.hits") + count("disk.trackbuf.misses"),
        ),
        "disk.freemap.query.calls": calls("disk.freemap.query"),
        "disk.freemap.query.self_us_per_call": self_us_per_call(
            "disk.freemap.query"
        ),
        "blockdev.regular.self_us_per_call": self_us_per_call(
            "blockdev.regular"
        ),
        "blockdev.nvmdev.stores": count("blockdev.nvmdev.stores"),
        "blockdev.nvmdev.flushes": count("blockdev.nvmdev.flushes"),
        "vlog.vld.write.calls": calls("vlog.vld.write"),
        "vlog.vld.write.self_us_per_call": self_us_per_call("vlog.vld.write"),
        "vlog.vld.read.calls": calls("vlog.vld.read"),
        "vlog.vld.read.self_us_per_call": self_us_per_call("vlog.vld.read"),
        "vlog.allocator.calls": calls("vlog.allocator"),
        "vlog.allocator.self_us_per_call": self_us_per_call("vlog.allocator"),
        "vlog.allocator.fallback_ratio": ratio(
            count("vlog.allocator.fallbacks"),
            count("vlog.allocator.allocations"),
        ),
        "vlog.log.appends": count("vlog.log.appends"),
        "vlog.log.append.self_us_per_call": self_us_per_call(
            "vlog.log.append"
        ),
        "vlog.log.relocations": count("vlog.log.relocations"),
        "vlog.compactor.host_s": total_s("vlog.compactor"),
        "vlog.compactor.blocks_moved": count("vlog.compactor.blocks_moved"),
        "vlog.compactor.tracks_compacted": count(
            "vlog.compactor.tracks_compacted"
        ),
        "vlog.compactor.moved_per_track_reclaimed": ratio(
            count("vlog.compactor.blocks_moved"),
            count("vlog.compactor.tracks_compacted"),
        ),
        "vlog.recover.calls": calls("vlog.recover"),
        "vlog.recover.host_ms_per_call": ratio(
            total_s("vlog.recover") * 1e3, calls("vlog.recover")
        ),
        "vlog.recover.sim_s_per_call": ratio(
            count("vlog.recover.sim_s"), count("vlog.recover.count")
        ),
        "vlog.recover.scan_ratio": ratio(
            count("vlog.recover.scans"), count("vlog.recover.count")
        ),
        "vlog.recover.blocks_scanned_per_host_s": ratio(
            count("vlog.recover.blocks_scanned"), total_s("vlog.recover")
        ),
        "vlog.recover.records_read": count("vlog.recover.records_read"),
        "sched.submit.calls": calls("sched.submit"),
        "sched.self_us_per_call": ratio(
            self_s(*sched) * 1e6, calls("sched.submit")
        ),
        "sched.pick.self_us_per_call": self_us_per_call("sched.pick"),
        "sched.max_outstanding": count("sched.max_outstanding"),
        "sched.sim_busy_s": count("sched.busy_s"),
        "sched.sim_queue_wait_ms_mean": ratio(
            (count("sched.response_s") - count("sched.service_s")) * 1e3,
            count("sched.serviced"),
        ),
        "sim.engine.events_fired": count("sim.engine.events_fired"),
        "sim.engine.events_per_host_s": ratio(
            count("sim.engine.events_fired"), total_s("sim.engine.run")
        ),
        "sim.engine.run.self_s": self_s("sim.engine.run"),
        "hosts.multihost.self_s": self_s("hosts.multihost"),
        "hosts.hidden_think_ratio": ratio(
            count("hosts.hidden_think_s"), count("hosts.think_s")
        ),
        "volume.write.self_us_per_call": self_us_per_call("volume.write"),
        "volume.read.self_us_per_call": self_us_per_call("volume.read"),
        "volume.shard_calls_per_op": ratio(
            sum(shard_calls), calls("volume.write", "volume.read")
        ),
        "volume.shard_skew": ratio(
            max(shard_calls, default=0) * len(shard_calls), sum(shard_calls)
        ),
        "nvm.wal.write.self_us_per_call": self_us_per_call("nvm.wal.write"),
        "nvm.wal.read.self_us_per_call": self_us_per_call("nvm.wal.read"),
        "nvm.wal.absorb_ratio": ratio(
            count("nvm.wal.absorbed_writes"),
            count("nvm.wal.absorbed_writes")
            + count("nvm.wal.bypassed_writes"),
        ),
        "nvm.wal.destage.host_s": total_s("nvm.wal.destage"),
        "nvm.wal.destaged_blocks": count("nvm.wal.destaged_blocks"),
        "nvm.wal.pressure_destages": count("nvm.wal.pressure_destages"),
        "nvm.wal.log_resets": count("nvm.wal.log_resets"),
        "nvm.wal.sim_ack_us_mean": ratio(
            count("nvm.wal.ack_s") * 1e6, count("nvm.wal.absorbed_writes")
        ),
        "nvm.recover.host_ms_per_call": ratio(
            total_s("nvm.recover") * 1e3, calls("nvm.recover")
        ),
        "nvm.recover.replayed_blocks": count("nvm.recover.replayed_blocks"),
        "ufs.calls": calls("ufs"),
        "ufs.self_us_per_call": self_us_per_call("ufs"),
        "ufs.buffer_cache.hit_ratio": ratio(
            count("ufs.buffer_cache.hits"),
            count("ufs.buffer_cache.hits") + count("ufs.buffer_cache.misses"),
        ),
        "lfs.calls": calls("lfs"),
        "lfs.self_us_per_call": self_us_per_call("lfs"),
        "lfs.cleaner.segments_cleaned": count("lfs.cleaner.segments_cleaned"),
        "lfs.cleaner.blocks_copied": count("lfs.cleaner.blocks_copied"),
        "harness.build_stack.host_ms": setup_spans.get(
            "harness.build_stack", {}
        ).get("total_s", 0.0) * 1e3,
        "host.driver.self_us_per_op": ratio(
            self_s("host.driver", "host.op") * 1e6, ops
        ),
        "host.op_us_p50": nearest_rank(ordered_op_us, 50),
        "host.op_us_p99": nearest_rank(ordered_op_us, 99),
        "host.gc_collections": gc_collections,
    }
    return out
