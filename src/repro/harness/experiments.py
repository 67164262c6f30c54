"""One entry point per table/figure of the paper's evaluation, per
design choice it ablates, and per extension it points at.

Every function returns a plain dict so benchmarks and tests can assert on
the *shape* of the results (who wins, by what factor, where crossovers
fall) without depending on formatting.  The defaults are paper scale
(for an ablation or extension, its larger scale);
:mod:`repro.harness.registry` names each experiment's quick and full
keyword arguments and its renderer.

Each experiment's grid is declared as a list of
:class:`~repro.harness.sweep.SweepPoint` -- a pure, picklable spec naming
a module-level point function below (``_point_*`` / ``_figure8_point``)
-- and executed by :func:`~repro.harness.sweep.run_sweep`, which fans the
points out across worker processes (``--jobs``) and memoizes each one in
the content-addressed result cache (``--cache``).  Point functions derive
all randomness from their explicit ``seed`` argument, so results are
identical at any parallelism and on cache replay.

The experiments that build stacks through
:func:`~repro.harness.configs.build_stack` (figure6/7/8, table2/figure9,
figure10/11) take ``stack``: :class:`~repro.harness.configs.StackConfig`
field overrides (queue depth, scheduler, NVM tier, interposers) applied
to every stack of the grid.  The resulting config rides whole in each
point's parameters, so an override is just another cached, parallel
parameter.
"""

from __future__ import annotations

import random
from dataclasses import replace
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.blockdev.interpose import build_device_stack
from repro.blockdev.nvm import NVM_SPECS
from repro.disk.cache import ReadAheadPolicy
from repro.disk.disk import Disk
from repro.disk.specs import DISKS, HP97560, ST19101
from repro.harness.configs import STACKS, StackConfig, build_stack, utilization_of
from repro.harness.runner import (
    simulate_locate_free,
    simulate_queued_workload,
    simulate_track_fill,
)
from repro.harness.sweep import SweepPoint, sweep_values, warn_dropped
from repro.hosts import run_multihost
from repro.hosts.specs import SPARCSTATION_10
from repro.models.compactor import average_latency_closed_form
from repro.models.cylinder import cylinder_expected_latency
from repro.nvm import NVWal
from repro.sim.stats import COMPONENTS, nearest_rank
from repro.workloads.bursts import run_bursts
from repro.workloads.largefile import run_large_file
from repro.workloads.random_update import prepare_file, run_random_updates
from repro.workloads.smallfile import run_small_file

_MB = 1 << 20

#: Module path every point spec resolves against.
_HERE = "repro.harness.experiments"

#: The workloads' historical default seeds, made explicit so they sit in
#: every point spec (and therefore in every cache key).
_UPDATE_SEED = 0xF168
_BURST_SEED = 0xB025
_LARGEFILE_SEED = 0x10C5

#: ``stack=`` arguments: StackConfig field overrides, or None for none.
StackOverrides = Optional[Mapping[str, Any]]


def _config_params(config: StackConfig, stack: StackOverrides) -> Dict[str, Any]:
    """``config`` with the overrides applied, as a point parameter."""
    return replace(config, **(stack or {})).to_params()


# ======================================================================
# Table 1
# ======================================================================

def table1() -> Dict[str, Dict[str, float]]:
    """Disk parameters (Table 1) -- straight from the specs."""
    result = {}
    for spec in (HP97560, ST19101):
        result[spec.name] = {
            "sectors_per_track": spec.sectors_per_track,
            "tracks_per_cylinder": spec.tracks_per_cylinder,
            "head_switch_ms": spec.head_switch_time * 1e3,
            "min_seek_ms": spec.min_seek_time * 1e3,
            "rpm": spec.rpm,
            "scsi_overhead_ms": spec.scsi_overhead * 1e3,
        }
    return result


# ======================================================================
# Figure 1: time to locate a free sector vs free space
# ======================================================================

def _point_locate_free(
    *, seed: int, disk_name: str, free_fraction: float, trials: int
) -> float:
    return simulate_locate_free(
        DISKS[disk_name], free_fraction, trials=trials, seed=seed
    )


def figure1(
    fractions: Optional[Sequence[float]] = None,
    trials: int = 300,
    seed: int = 1,
) -> Dict[str, Dict[str, List[float]]]:
    """Model vs simulation of free-sector locate time, both disks."""
    if fractions is None:
        fractions = [0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
    specs = (HP97560, ST19101)
    points = [
        SweepPoint(
            f"{_HERE}:_point_locate_free",
            {
                "disk_name": spec.name.lower(),
                "free_fraction": p,
                "trials": trials,
            },
            seed,
        )
        for spec in specs
        for p in fractions
    ]
    simulated = sweep_values(points)
    result: Dict[str, Dict[str, List[float]]] = {}
    for i, spec in enumerate(specs):
        chunk = simulated[i * len(fractions) : (i + 1) * len(fractions)]
        result[spec.name] = {
            "free_fraction": list(fractions),
            "model_seconds": [
                cylinder_expected_latency(spec, p) for p in fractions
            ],
            "simulated_seconds": chunk,
        }
    return result


# ======================================================================
# Figure 2: latency vs track-switch threshold
# ======================================================================

def _point_track_fill(
    *, seed: int, disk_name: str, threshold: float, trials: int
) -> float:
    return simulate_track_fill(
        DISKS[disk_name], threshold, trials=trials, seed=seed
    )


def figure2(
    thresholds: Optional[Sequence[float]] = None,
    trials: int = 40,
    seed: int = 2,
) -> Dict[str, Dict[str, List[float]]]:
    """Model vs simulation of the compactor-assisted track-fill regime.

    ``thresholds`` are the fraction of free sectors *reserved* per track
    before switching (the paper's x-axis; high = frequent switches).
    """
    if thresholds is None:
        thresholds = [0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
    specs = (HP97560, ST19101)
    points = [
        SweepPoint(
            f"{_HERE}:_point_track_fill",
            {
                "disk_name": spec.name.lower(),
                "threshold": threshold,
                "trials": trials,
            },
            seed,
        )
        for spec in specs
        for threshold in thresholds
    ]
    simulated = sweep_values(points)
    result: Dict[str, Dict[str, List[float]]] = {}
    for i, spec in enumerate(specs):
        n = spec.sectors_per_track
        model = []
        for threshold in thresholds:
            m = max(0, min(n - 1, int(round(threshold * n))))
            model.append(
                average_latency_closed_form(
                    n, m, spec.head_switch_time, spec.sector_time
                )
            )
        result[spec.name] = {
            "threshold": list(thresholds),
            "model_seconds": model,
            "simulated_seconds": simulated[
                i * len(thresholds) : (i + 1) * len(thresholds)
            ],
        }
    return result


# ======================================================================
# Figure 6: small-file create/read/delete
# ======================================================================

def _point_smallfile(
    *, seed: int, config: Dict[str, Any], num_files: int
) -> Dict[str, float]:
    del seed  # the small-file workload is deterministic
    fs, _disk, _device = build_stack(StackConfig.from_params(config))
    outcome = run_small_file(fs, num_files=num_files)
    return {
        "create": outcome.create_seconds,
        "read": outcome.read_seconds,
        "delete": outcome.delete_seconds,
    }


def figure6(
    num_files: int = 1500,
    disk_name: str = "st19101",
    host_name: str = "sparc10",
    stack: StackOverrides = None,
) -> Dict[str, Dict[str, float]]:
    """Per-stack phase times, plus normalisation to UFS-on-regular."""
    stacks = list(STACKS)
    points = [
        SweepPoint(
            f"{_HERE}:_point_smallfile",
            {
                "config": _config_params(
                    STACKS[name].with_platform(disk_name, host_name), stack
                ),
                "num_files": num_files,
            },
        )
        for name in stacks
    ]
    raw = dict(zip(stacks, sweep_values(points)))
    baseline = raw["ufs-regular"]
    normalized = {
        name: {
            phase: baseline[phase] / seconds if seconds > 0 else float("inf")
            for phase, seconds in phases.items()
        }
        for name, phases in raw.items()
    }
    return {"seconds": raw, "normalized": normalized}


# ======================================================================
# Figure 7: large-file bandwidths
# ======================================================================

def _point_largefile(
    *, seed: int, config: Dict[str, Any], file_mb: float
) -> Dict[str, float]:
    config = StackConfig.from_params(config)
    fs, _disk, _device = build_stack(config)
    outcome = run_large_file(
        fs,
        file_bytes=int(file_mb * _MB),
        include_sync_phase=config.fs_type == "ufs",
        seed=seed,
    )
    return dict(outcome.bandwidths)


def figure7(
    file_mb: float = 10.0,
    disk_name: str = "st19101",
    host_name: str = "sparc10",
    stack: StackOverrides = None,
) -> Dict[str, Dict[str, float]]:
    """Per-stack bandwidths for the six large-file phases (MB/s)."""
    stacks = list(STACKS)
    points = [
        SweepPoint(
            f"{_HERE}:_point_largefile",
            {
                "config": _config_params(
                    STACKS[name].with_platform(disk_name, host_name), stack
                ),
                "file_mb": file_mb,
            },
            _LARGEFILE_SEED,
        )
        for name in stacks
    ]
    return dict(zip(stacks, sweep_values(points)))


# ======================================================================
# Figure 8: random synchronous updates vs disk utilization
# ======================================================================

def _figure8_point(
    *,
    seed: int,
    config: Dict[str, Any],
    file_mb: float,
    updates: int,
    warmup: int,
) -> Optional[List[float]]:
    """One (system, file size) point: ``[utilization, latency]``, or
    ``None`` when the file does not fit (the caller warns and drops)."""
    from repro.fs.api import NoSpace

    fs, _disk, device = build_stack(StackConfig.from_params(config))
    file_bytes = int(file_mb * _MB)
    try:
        prepare_file(fs, "/target", file_bytes)
        recorder = run_random_updates(
            fs, "/target", file_bytes, updates, warmup=warmup, seed=seed
        )
    except NoSpace:
        return None
    return [utilization_of(fs, device), recorder.mean()]


def figure8(
    file_mbs: Optional[Sequence[float]] = None,
    updates: int = 300,
    warmup: int = 100,
    lfs_updates: int = 2500,
    lfs_warmup: int = 2000,
    disk_name: str = "st19101",
    host_name: str = "sparc10",
    stack: StackOverrides = None,
) -> Dict[str, Dict[str, List[float]]]:
    """Latency-vs-utilization curves for the three Figure 8 systems.

    The LFS-with-NVRAM runs need enough updates to overflow the 6.1 MB
    buffer repeatedly (the steady state the paper measures), hence the
    larger ``lfs_updates``/``lfs_warmup`` defaults.
    """
    if file_mbs is None:
        file_mbs = [1, 2, 4, 6, 8, 10, 12, 14, 16, 17, 18]
    systems = {
        "ufs-regular": StackConfig(
            "ufs-regular", "ufs", "regular", disk_name, host_name
        ),
        "ufs-vld": StackConfig(
            "ufs-vld", "ufs", "vld", disk_name, host_name
        ),
        "lfs-nvram-regular": StackConfig(
            "lfs-nvram-regular", "lfs", "regular", disk_name, host_name,
            nvram=True,
        ),
    }
    points = []
    for name, config in systems.items():
        lfs = config.fs_type == "lfs"
        for file_mb in file_mbs:
            points.append(SweepPoint(
                f"{_HERE}:_figure8_point",
                {
                    "config": _config_params(config, stack),
                    "file_mb": file_mb,
                    "updates": lfs_updates if lfs else updates,
                    "warmup": lfs_warmup if lfs else warmup,
                },
                _UPDATE_SEED,
            ))
    values = iter(sweep_values(points))
    result: Dict[str, Dict[str, List[float]]] = {}
    for name in systems:
        utilizations: List[float] = []
        latencies: List[float] = []
        for file_mb in file_mbs:
            point = next(values)
            if point is None:
                warn_dropped(
                    "figure8", stack=name, file_mb=file_mb, cause="NoSpace"
                )
                continue
            utilization, latency = point
            utilizations.append(utilization)
            latencies.append(latency)
        result[name] = {
            "utilization": utilizations,
            "latency_ms": [v * 1e3 for v in latencies],
        }
    return result


# ======================================================================
# Table 2 and Figure 9: technology trends and latency breakdown
# ======================================================================

PLATFORMS = (
    ("hp97560", "sparc10"),
    ("st19101", "sparc10"),
    ("st19101", "ultra170"),
)


def _point_table2(
    *,
    seed: int,
    config: Dict[str, Any],
    utilization: float,
    updates: int,
    warmup: int,
    compact_seconds: float,
) -> Dict[str, Any]:
    """One (platform, device) cell: the mean latency of the measured
    writes and, from the same writes' breakdowns, the component fractions
    backing Figure 9."""
    fs, disk, device = build_stack(StackConfig.from_params(config))
    file_bytes = int(utilization * disk.geometry.capacity_bytes)
    prepare_file(fs, "/target", file_bytes)
    # Footnote 1 of the paper: "The VLD latency in this case is
    # measured immediately after running a compactor."  Idle time
    # lets the compactor consolidate free space into empty tracks
    # (a no-op on the regular disk).
    device.idle(compact_seconds)
    recorder = run_random_updates(
        fs, "/target", file_bytes, updates, warmup=warmup, seed=seed
    )
    return {
        "latency": recorder.mean(),
        "fractions": recorder.component_fractions(),
    }


def _update_gap_cells(
    platforms: Sequence[Tuple[str, str]],
    utilization: float,
    updates: int,
    warmup: int,
    compact_seconds: float,
    stack: StackOverrides,
) -> List[Dict[str, Dict[str, Any]]]:
    """Table 2's cells, per ``(disk, host)`` platform: the
    :func:`_point_table2` result of update-in-place (``regular``) and of
    the virtual log (``vld``)."""
    devices = ("regular", "vld")
    points = [
        SweepPoint(
            f"{_HERE}:_point_table2",
            {
                "config": _config_params(
                    StackConfig(
                        f"ufs-{device_type}", "ufs", device_type,
                        disk_name, host_name,
                    ),
                    stack,
                ),
                "utilization": utilization,
                "updates": updates,
                "warmup": warmup,
                "compact_seconds": compact_seconds,
            },
            _UPDATE_SEED,
        )
        for disk_name, host_name in platforms
        for device_type in devices
    ]
    values = iter(sweep_values(points))
    return [
        {device_type: next(values) for device_type in devices}
        for _ in platforms
    ]


def _gap(cells: Mapping[str, Dict[str, Any]]) -> Tuple[float, float, float]:
    """One platform's in-place and virtual-log latency (ms), and the
    speedup between them."""
    regular, vld = cells["regular"]["latency"], cells["vld"]["latency"]
    return regular * 1e3, vld * 1e3, regular / vld


def table2(
    utilization: float = 0.8,
    updates: int = 300,
    warmup: int = 100,
    compact_seconds: float = 20.0,
    stack: StackOverrides = None,
) -> Dict[str, Dict[str, float]]:
    """Update-in-place vs virtual-log gap across platforms (Table 2),
    with the Figure 9 component breakdowns of the same runs.

    A cell's latency and its breakdown are one set of writes: each
    synchronous update returns its own breakdown (SCSI, transfer and
    locate as the device charged them, host time as the file system
    charged it), and the mean and the fractions are both taken over the
    measured writes' breakdowns.
    """
    cells_per_platform = _update_gap_cells(
        PLATFORMS, utilization, updates, warmup, compact_seconds, stack
    )
    result: Dict[str, Dict[str, float]] = {}
    for (disk_name, host_name), cells in zip(PLATFORMS, cells_per_platform):
        entry: Dict[str, float] = dict(
            zip(("update_in_place_ms", "virtual_log_ms", "speedup"), _gap(cells))
        )
        for component in COMPONENTS:
            for device_type in ("regular", "vld"):
                entry[f"{device_type}_{component}"] = (
                    cells[device_type]["fractions"][component]
                )
        result[f"{disk_name}+{host_name}"] = entry
    return result


def figure9(
    utilization: float = 0.8,
    updates: int = 300,
    warmup: int = 100,
    stack: StackOverrides = None,
) -> Dict[str, Dict[str, float]]:
    """Latency breakdowns (same runs as Table 2, reshaped per Figure 9)."""
    return breakdown(table2(utilization, updates, warmup, stack=stack))


def breakdown(table: Mapping[str, Dict[str, float]]) -> Dict[str, Dict[str, float]]:
    """Table 2's result reshaped per Figure 9: one row per platform and
    device, its component fractions and its total latency."""
    result: Dict[str, Dict[str, float]] = {}
    for platform, entry in table.items():
        for device in ("regular", "vld"):
            key = f"{platform}/{device}"
            result[key] = {
                component: entry[f"{device}_{component}"]
                for component in COMPONENTS
            }
            result[key]["total_ms"] = entry[
                "update_in_place_ms" if device == "regular" else "virtual_log_ms"
            ]
    return result


# ======================================================================
# Figures 10 and 11: the value of idle time
# ======================================================================

def figure10(
    burst_kbs: Optional[Sequence[int]] = None,
    idle_seconds: Optional[Sequence[float]] = None,
    utilization: float = 0.8,
    bursts: int = 6,
    disk_name: str = "st19101",
    host_name: str = "sparc10",
    stack: StackOverrides = None,
) -> Dict[str, Dict[str, List[float]]]:
    """LFS (with NVRAM) latency vs idle-interval length (Figure 10)."""
    if burst_kbs is None:
        burst_kbs = [128, 256, 504, 1008, 2016, 4032]
    if idle_seconds is None:
        idle_seconds = [0.0, 0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]
    config = StackConfig(
        "lfs-nvram-regular", "lfs", "regular", disk_name, host_name,
        nvram=True,
    )
    return _idle_sweep(
        _config_params(config, stack),
        burst_kbs, idle_seconds, utilization, bursts,
    )


def figure11(
    burst_kbs: Optional[Sequence[int]] = None,
    idle_seconds: Optional[Sequence[float]] = None,
    utilization: float = 0.8,
    bursts: int = 6,
    disk_name: str = "st19101",
    host_name: str = "sparc10",
    stack: StackOverrides = None,
) -> Dict[str, Dict[str, List[float]]]:
    """UFS on the VLD latency vs idle-interval length (Figure 11)."""
    if burst_kbs is None:
        burst_kbs = [128, 256, 512, 1024, 2048, 4096]
    if idle_seconds is None:
        idle_seconds = [0.0, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6]
    config = StackConfig(
        "ufs-vld", "ufs", "vld", disk_name, host_name
    )
    return _idle_sweep(
        _config_params(config, stack),
        burst_kbs, idle_seconds, utilization, bursts,
    )


def _point_idle_burst(
    *,
    seed: int,
    config: Dict[str, Any],
    utilization: float,
    burst_kb: int,
    idle: float,
    bursts: int,
) -> float:
    fs, disk, _device = build_stack(StackConfig.from_params(config))
    file_bytes = int(utilization * disk.geometry.capacity_bytes)
    prepare_file(fs, "/target", file_bytes)
    recorder = run_bursts(
        fs,
        "/target",
        file_bytes,
        burst_bytes=burst_kb << 10,
        idle_seconds=idle,
        bursts=bursts,
        seed=seed,
    )
    return recorder.mean()


def _idle_sweep(
    config: Dict[str, Any],
    burst_kbs: Sequence[int],
    idle_seconds: Sequence[float],
    utilization: float,
    bursts: int,
) -> Dict[str, Dict[str, List[float]]]:
    points = [
        SweepPoint(
            f"{_HERE}:_point_idle_burst",
            {
                "config": config,
                "utilization": utilization,
                "burst_kb": burst_kb,
                "idle": idle,
                "bursts": bursts,
            },
            _BURST_SEED,
        )
        for burst_kb in burst_kbs
        for idle in idle_seconds
    ]
    values = iter(sweep_values(points))
    result: Dict[str, Dict[str, List[float]]] = {}
    for burst_kb in burst_kbs:
        latencies = [next(values) for _ in idle_seconds]
        result[f"{burst_kb}K"] = {
            "idle_seconds": list(idle_seconds),
            "latency_ms": [v * 1e3 for v in latencies],
        }
    return result


# ======================================================================
# Queue-depth sweep: scheduling policy x queue depth x workload
# ======================================================================

def _point_qdepth(
    *,
    seed: int,
    disk_name: str,
    queue_depth: int,
    policy: str,
    workload: str,
    requests: int,
    think_us: float,
) -> Dict[str, float]:
    return simulate_queued_workload(
        DISKS[disk_name],
        queue_depth=queue_depth,
        policy=policy,
        workload=workload,
        requests=requests,
        think_seconds=think_us * 1e-6,
        seed=seed,
    )


def figure_qdepth(
    depths: Optional[Sequence[int]] = None,
    policies: Sequence[str] = ("fifo", "scan", "satf"),
    workloads: Sequence[str] = ("random-update", "sequential", "mixed"),
    requests: int = 400,
    think_us: float = 200.0,
    disk_name: str = "st19101",
    seed: int = 3,
) -> Dict[str, Dict[str, Dict[str, List[float]]]]:
    """Mean service time vs queue depth, per scheduling policy and
    workload, on the raw disk through the host pipeline.

    The queued counterpart of the figure experiments: at depth 1 every
    policy collapses to the unscheduled baseline, and the depth axis
    shows how much a queue-aware policy (SATF priced by the mechanics
    model) buys over FIFO once the disk can reorder.
    """
    if depths is None:
        depths = [1, 2, 4, 8]
    points = [
        SweepPoint(
            f"{_HERE}:_point_qdepth",
            {
                "disk_name": disk_name,
                "queue_depth": depth,
                "policy": policy,
                "workload": workload,
                "requests": requests,
                "think_us": think_us,
            },
            seed,
        )
        for workload in workloads
        for policy in policies
        for depth in depths
    ]
    values = iter(sweep_values(points))
    result: Dict[str, Dict[str, Dict[str, List[float]]]] = {}
    for workload in workloads:
        per_policy: Dict[str, Dict[str, List[float]]] = {}
        for policy in policies:
            runs = [next(values) for _ in depths]
            per_policy[policy] = {
                "queue_depth": [float(d) for d in depths],
                "mean_service_ms": [r["mean_service_ms"] for r in runs],
                "p95_service_ms": [r["p95_service_ms"] for r in runs],
                "p99_service_ms": [r["p99_service_ms"] for r in runs],
                "p999_service_ms": [r["p999_service_ms"] for r in runs],
                "mean_response_ms": [r["mean_response_ms"] for r in runs],
                "p99_response_ms": [r["p99_response_ms"] for r in runs],
                "elapsed_seconds": [r["elapsed_seconds"] for r in runs],
            }
        result[workload] = per_policy
    return result


# ======================================================================
# Multi-host sweep: N closed-loop hosts x M disks on the event engine
# ======================================================================

def _point_multihost(
    *,
    seed: int,
    disk_name: str,
    hosts: int,
    disks: int,
    requests_per_host: int,
    workload: str,
    policy: str,
    think_us: float,
    shards: Optional[int] = None,
    shard_slow: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    report = run_multihost(
        DISKS[disk_name],
        hosts=hosts,
        disks=disks,
        requests_per_host=requests_per_host,
        think_seconds=think_us * 1e-6,
        workload=workload,
        policy=policy,
        seed=seed,
        shards=shards,
        shard_slow=shard_slow,
    )
    report.pop("trace", None)
    return report


def figure_multihost(
    host_counts: Optional[Sequence[int]] = None,
    disks: int = 1,
    workloads: Sequence[str] = ("random-update", "sequential"),
    requests_per_host: int = 200,
    think_us: float = 200.0,
    policy: str = "fifo",
    disk_name: str = "st19101",
    seed: int = 3,
    shards: Optional[int] = None,
    shard_slow: Optional[Dict[str, object]] = None,
) -> Dict[str, Dict[str, object]]:
    """Throughput and tail latency vs host count on the event engine.

    The scale-out counterpart of ``figure_qdepth``: instead of one host
    queueing deeper, more closed-loop hosts share ``disks`` striped
    device stacks.  Reports mean and p99/p999 response time (queueing
    shows in the tail first), throughput, and the exactly-measured
    think/service overlap per host count.

    With ``shards=N`` the grid runs in sharded-volume mode (the N-hosts
    x M-shards grid): each row additionally carries the per-shard
    response tails, and ``shard_slow`` injects a fail-slow window into
    one shard so the degraded-window throughput rides along.
    """
    if host_counts is None:
        host_counts = [1, 2, 4, 8]
    params: Dict[str, object] = {
        "disk_name": disk_name,
        "disks": disks,
        "requests_per_host": requests_per_host,
        "policy": policy,
        "think_us": think_us,
    }
    if shards is not None:
        params["shards"] = shards
        if shard_slow is not None:
            params["shard_slow"] = dict(shard_slow)
    points = [
        SweepPoint(
            f"{_HERE}:_point_multihost",
            {**params, "hosts": hosts, "workload": workload},
            seed,
        )
        for workload in workloads
        for hosts in host_counts
    ]
    values = iter(sweep_values(points))
    result: Dict[str, Dict[str, object]] = {}
    for workload in workloads:
        runs = [next(values) for _ in host_counts]
        result[workload] = {
            "hosts": [float(h) for h in host_counts],
            "requests_per_second": [
                float(r["requests_per_second"]) for r in runs
            ],
            "mean_response_ms": [float(r["mean_response_ms"]) for r in runs],
            "p99_response_ms": [float(r["p99_response_ms"]) for r in runs],
            "p999_response_ms": [float(r["p999_response_ms"]) for r in runs],
            "mean_service_ms": [float(r["mean_service_ms"]) for r in runs],
            "hidden_think_seconds": [
                float(r["hidden_think_seconds"]) for r in runs
            ],
            "elapsed_seconds": [float(r["elapsed_seconds"]) for r in runs],
        }
        if shards is not None:
            result[workload]["per_shard"] = [r["per_shard"] for r in runs]
    return result


# ======================================================================
# NVM write-ahead tier: sync-write latency vs eager writing
# ======================================================================

def _point_nvm(
    *,
    seed: int,
    mode: str,
    workload: str,
    requests: int,
    disk_name: str,
    nvm_part: str,
    nvm_store_latency: Optional[float],
    nvm_capacity: Optional[int],
    idle_every: int = 16,
    idle_seconds: float = 0.05,
) -> Dict[str, float]:
    """One (mode, workload) cell of :func:`figure_nvm`.

    ``mode`` picks the stack: ``eager`` is the bare Virtual Log Disk
    (the paper's technique -- every write is already near-minimal
    positioning cost), ``nvm-wal`` is the write-ahead tier over a plain
    update-in-place disk (the NVLog arrangement), ``nvm+vld`` stacks the
    tier on the VLD so destage I/O also rides eager writing.  The driver
    issues synchronous writes and measures each acknowledgement by clock
    delta; every ``idle_every`` requests the device gets
    ``idle_seconds`` of idle time, which is where the tier destages.
    """
    if mode not in ("eager", "nvm-wal", "nvm+vld"):
        raise ValueError(f"unknown mode {mode!r}")
    rng = random.Random(seed)
    disk = Disk(DISKS[disk_name], num_cylinders=6)
    spec = NVM_SPECS[nvm_part].with_overrides(
        store_latency=nvm_store_latency, capacity_bytes=nvm_capacity
    )
    device = build_device_stack(
        disk,
        "regular" if mode == "nvm-wal" else "vld",
        nvm=spec if mode != "eager" else None,
    )

    span = 192
    clock = disk.clock

    def next_op() -> tuple:
        if workload in ("small-sync", "random-update"):
            return ("write", rng.randrange(span), 1)
        if workload == "mixed":
            roll = rng.random()
            if roll < 0.2:
                return ("read", rng.randrange(span), 1)
            if roll < 0.4:
                start = rng.randrange(span - 8)
                return ("write", start, rng.randrange(2, 8))
            return ("write", rng.randrange(span), 1)
        raise ValueError(f"unknown workload {workload!r}")

    block_size = device.block_size
    if workload == "random-update":
        # Updates hit a prewritten region (the prewrite is untimed setup:
        # latencies below measure only the update stream).
        for lba in range(span):
            device.write_block(lba, bytes([lba % 251]) * block_size)
        if isinstance(device, NVWal):
            device.destage_all()

    write_latencies: List[float] = []
    for index in range(requests):
        op, lba, count = next_op()
        if op == "read":
            device.read_blocks(lba, count)
            continue
        payload = bytes([index % 251]) * (count * block_size)
        before = clock.now
        device.write_blocks(lba, count, payload)
        write_latencies.append(clock.now - before)
        if (index + 1) % idle_every == 0:
            device.idle(idle_seconds)

    ordered = sorted(write_latencies)
    result: Dict[str, float] = {
        "mean_write_ms": sum(ordered) / len(ordered) * 1e3,
        "p99_write_ms": nearest_rank(ordered, 0.99) * 1e3,
        "max_write_ms": ordered[-1] * 1e3,
        "writes": float(len(ordered)),
        "elapsed_seconds": clock.now,
    }
    if isinstance(device, NVWal):
        result["absorbed_writes"] = float(device.absorbed_writes)
        result["bypassed_writes"] = float(device.bypassed_writes)
        result["destaged_blocks"] = float(device.destaged_blocks)
        result["pressure_destages"] = float(device.pressure_destages)
    return result


def figure_nvm(
    modes: Sequence[str] = ("eager", "nvm-wal", "nvm+vld"),
    workloads: Sequence[str] = ("small-sync", "random-update", "mixed"),
    requests: int = 400,
    disk_name: str = "st19101",
    nvm_part: str = "nvdimm",
    nvm_store_latency: Optional[float] = None,
    nvm_capacity: Optional[int] = None,
    seed: int = 11,
) -> Dict[str, Dict[str, Dict[str, float]]]:
    """Synchronous-write latency: eager writing vs the NVM write-ahead
    tier vs both stacked, per workload.

    The paper's claim is that eager writing makes small synchronous
    writes cheap *on disk*; the NVM tier makes them cheap *before* the
    disk.  The interesting cells are where they differ: the tier
    acknowledges in microseconds regardless of position, but a bounded
    log must destage -- under sustained load with no idle time, pressure
    destages surface the backing store's write cost again (visible in
    ``p99_write_ms``/``max_write_ms``).
    """
    points = [
        SweepPoint(
            f"{_HERE}:_point_nvm",
            {
                "mode": mode,
                "workload": workload,
                "requests": requests,
                "disk_name": disk_name,
                "nvm_part": nvm_part,
                "nvm_store_latency": nvm_store_latency,
                "nvm_capacity": nvm_capacity,
            },
            seed,
        )
        for workload in workloads
        for mode in modes
    ]
    values = iter(sweep_values(points))
    result: Dict[str, Dict[str, Dict[str, float]]] = {}
    for workload in workloads:
        result[workload] = {mode: next(values) for mode in modes}
    return result


# ======================================================================
# Ablations: the design choices the paper defends one at a time
# ======================================================================

def _sweep_over(
    point: str, key: str, values: Sequence[Any], seed: int = 0, **params: Any
) -> Dict[Any, Any]:
    """The point function ``point`` at each of ``values`` of its
    parameter ``key`` (the others fixed at ``params``), keyed by value."""
    points = [
        SweepPoint(f"{_HERE}:{point}", {key: value, **params}, seed)
        for value in values
    ]
    return dict(zip(values, sweep_values(points)))


def _point_vld_update(
    *, seed: int, knob: str, value: Any, readahead: str, file_mb: float,
    idle: float, updates: int, warmup: int,
) -> float:
    """UFS on a VLD built with ``knob=value`` (an allocation policy by
    its name), its disk with the named read-ahead: the mean latency (ms)
    of random synchronous 4 KB updates, after ``idle`` seconds for the
    compactor when that is not 0."""
    from repro.ufs.ufs import UFS
    from repro.vlog.allocator import AllocationPolicy
    from repro.vlog.vld import VirtualLogDisk

    if knob == "policy":
        value = AllocationPolicy(value)
    disk = Disk(ST19101, readahead=ReadAheadPolicy(readahead))
    device = VirtualLogDisk(disk, **{knob: value})
    fs = UFS(device, SPARCSTATION_10)
    file_bytes = int(file_mb * _MB)
    prepare_file(fs, "/t", file_bytes)
    if idle:
        device.idle(idle)
    recorder = run_random_updates(
        fs, "/t", file_bytes, updates, warmup=warmup, seed=seed
    )
    return recorder.mean() * 1e3


def ablation_allocator(updates: int = 300, warmup: int = 100) -> Dict[str, float]:
    """The eager-allocation policy (Section 4.2): NEAREST (Figure 1's
    idealised search), GREEDY_CYLINDER (one-way sweep) and TRACK_FILL
    (the compactor-assisted one), ms per update at ~55 % utilization."""
    return _sweep_over(
        "_point_vld_update", "value", ("nearest", "greedy_cylinder", "track_fill"),
        _UPDATE_SEED, knob="policy", readahead="full_track", file_mb=12, idle=0.0,
        updates=updates, warmup=warmup,
    )


def ablation_compactor(updates: int = 250, warmup: int = 83) -> Dict[float, float]:
    """The VLD's track-fill threshold (Sections 2.3 and 4.2), ms per
    update after 5 s of compaction."""
    return _sweep_over(
        "_point_vld_update", "value", (0.5, 0.75, 0.9), _UPDATE_SEED,
        knob="fill_threshold", readahead="dartmouth", file_mb=10, idle=5.0,
        updates=updates, warmup=warmup,
    )


def ablation_mapsector(updates: int = 300, warmup: int = 100) -> Dict[int, float]:
    """The map-record size (Section 3.2): 512-byte sectors against 4 KB
    blocks, ms per update at ~73 % utilization."""
    return _sweep_over(
        "_point_vld_update", "value", (512, 4096), _UPDATE_SEED,
        knob="map_record_bytes", readahead="full_track", file_mb=16, idle=0.0,
        updates=updates, warmup=warmup,
    )


def _point_lfs_cleaner(
    *, seed: int, policy: str, file_mb: float, updates: int, warmup: int
) -> Dict[str, float]:
    """LFS with NVRAM on a regular disk, cleaning by the named policy,
    under random synchronous updates."""
    from repro.blockdev.regular import RegularDisk
    from repro.lfs.cleaner import CleanerPolicy
    from repro.lfs.lfs import LFS

    fs = LFS(
        RegularDisk(Disk(ST19101)), SPARCSTATION_10, nvram=True,
        cleaner_policy=CleanerPolicy(policy),
    )
    file_bytes = int(file_mb * _MB)
    prepare_file(fs, "/t", file_bytes)
    recorder = run_random_updates(
        fs, "/t", file_bytes, updates, warmup=warmup, seed=seed
    )
    return {
        "latency_ms": recorder.mean() * 1e3,
        "segments_cleaned": fs.cleaner.segments_cleaned,
        "blocks_copied": fs.cleaner.blocks_copied,
    }


def ablation_cleaner(
    updates: int = 4000, warmup: int = 1500
) -> Dict[str, Dict[str, float]]:
    """The LFS cleaner policy (Section 4.4): greedy against cost-benefit
    under churn of a 17 MB file."""
    return _sweep_over(
        "_point_lfs_cleaner", "policy", ("greedy", "cost_benefit"), _UPDATE_SEED,
        file_mb=17, updates=updates, warmup=warmup,
    )


def _point_seq_read(*, seed: int, readahead: str, file_mb: float) -> float:
    """Sequential 4 KB reads (MB/s) of a file written eagerly, through
    UFS on a VLD whose disk has the named read-ahead policy."""
    del seed  # the workload is deterministic
    from repro.ufs.ufs import UFS
    from repro.vlog.vld import VirtualLogDisk

    disk = Disk(ST19101, readahead=ReadAheadPolicy(readahead))
    fs = UFS(VirtualLogDisk(disk), SPARCSTATION_10)
    size = int(file_mb * _MB)
    fs.create("/seq")
    chunk = bytes(64 * 4096)
    for offset in range(0, size, len(chunk)):
        fs.write("/seq", offset, chunk)
    fs.sync()
    fs.drop_caches()
    start = disk.clock.now
    for offset in range(0, size, 4096):
        fs.read("/seq", offset, 4096)
    return (size / _MB) / (disk.clock.now - start)


def ablation_trackbuffer(file_mb: float = 6) -> Dict[str, float]:
    """The track-buffer fix of Section 4.2: the stock Dartmouth
    read-ahead, the full-track policy, and none, under a VLD."""
    return _sweep_over(
        "_point_seq_read", "readahead", ("dartmouth", "full_track", "disabled"),
        file_mb=file_mb,
    )


# ======================================================================
# Extensions: what the paper predicted, deferred or deduced
# ======================================================================

def future_trends(
    updates: int = 300, warmup: int = 100
) -> Dict[str, Tuple[float, float, float]]:
    """The closing prediction, one drive generation on: Table 2's cell
    on the UltraSPARC host for each drive, the projected ~2004 one
    included -- in-place ms, virtual-log ms and the speedup."""
    disks = ("hp97560", "st19101", "future2004")
    cells = _update_gap_cells(
        [(disk, "ultra170") for disk in disks], 0.8, updates, warmup, 20.0, None
    )
    return {disk: _gap(cell) for disk, cell in zip(disks, cells)}


def _point_reorganizer(*, seed: int, file_mb: float) -> Dict[str, float]:
    """Sequential read bandwidth (MB/s) of a VLD freshly written, after
    random rewrites, and after 30 s of read-locality reorganization
    (``_windows``: the windows it rewrote)."""
    from repro.vlog.reorganizer import ReadReorganizer
    from repro.vlog.vld import VirtualLogDisk

    nblocks = int(file_mb * _MB) // 4096
    vld = VirtualLogDisk(Disk(ST19101, readahead=ReadAheadPolicy.FULL_TRACK))
    clock = vld.disk.clock
    rng = random.Random(seed)

    def seq_read_bw() -> float:
        vld.disk.cache.invalidate()
        start = clock.now
        vld.read_blocks(0, nblocks)
        return (nblocks * 4096 / _MB) / (clock.now - start)

    for lba in range(nblocks):
        vld.write_block(lba, bytes([lba % 251]) * 4096)
    fresh_bw = seq_read_bw()
    for _ in range(2 * nblocks):
        vld.write_block(rng.randrange(nblocks), b"r" * 4096)
    scattered_bw = seq_read_bw()
    reorganizer = ReadReorganizer(vld)
    reorganizer.run_for(30.0)
    return {
        "freshly written": fresh_bw,
        "after random writes": scattered_bw,
        "after reorganization": seq_read_bw(),
        "_windows": reorganizer.windows_reorganized,
    }


def reorganizer(file_mb: float = 8) -> Dict[str, float]:
    """Idle-time read-locality reorganization (Section 3.4's deferred
    cure for Figure 7's sequential-read penalty)."""
    return _sweep_over("_point_reorganizer", "file_mb", (file_mb,), 5)[file_mb]


def _point_vlfs_deduction(*, seed: int, stack: str, updates: int) -> List[float]:
    """Mean synchronous, then buffered, random 4 KB update latency (ms)
    on an 8 MB file: ``vlfs``, or one of :data:`STACKS`."""
    if stack == "vlfs":
        from repro.vlfs.vlfs import VLFS

        fs = VLFS(Disk(ST19101), SPARCSTATION_10)
    else:
        fs, _disk, _device = build_stack(STACKS[stack])
    rng = random.Random(seed)
    file_bytes = 8 * _MB
    fs.create("/t")
    chunk = bytes(4096) * 128
    for offset in range(0, file_bytes, len(chunk)):
        fs.write("/t", offset, chunk)
    fs.sync()
    nblocks = file_bytes // 4096
    means = []
    for payload, sync in ((b"u" * 4096, True), (b"v" * 4096, False)):
        total = 0.0
        for _ in range(updates):
            offset = rng.randrange(nblocks) * 4096
            total += fs.write("/t", offset, payload, sync=sync).total
        means.append(total / updates * 1e3)
    return means


def vlfs_deduction(updates: int = 400) -> Dict[str, List[float]]:
    """Section 5.1's deduction, measured: VLFS against UFS on either
    device and LFS, synchronously and buffered."""
    return _sweep_over(
        "_point_vlfs_deduction", "stack", ("ufs-regular", "ufs-vld", "lfs-regular", "vlfs"),
        8, updates=updates,
    )
