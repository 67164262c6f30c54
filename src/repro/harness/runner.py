"""Low-level simulation routines for the analytical-model validations
(Figures 1 and 2) and the queued-workload driver (the queue-depth sweep),
whose requests are :func:`repro.hosts.request_targets`, as a host's are."""

from __future__ import annotations

import random
from math import isfinite
from typing import Dict

from repro.disk.disk import Disk
from repro.disk.freemap import FreeSpaceMap, nearest_set_bit
from repro.disk.specs import DiskSpec
from repro.hosts import QUEUE_WORKLOADS as QUEUE_WORKLOADS, REQUEST_SECTORS, request_targets
from repro.sched.scheduler import DiskScheduler
from repro.vlog.allocator import AllocationPolicy, EagerAllocator


def simulate_locate_free(
    spec: DiskSpec,
    free_fraction: float,
    trials: int = 300,
    seed: int = 1,
) -> float:
    """Mean time (seconds) to locate the nearest free sector (Figure 1).

    Free space is randomly distributed at the given fraction; between
    trials the head is flung to a random track and the platter phase
    randomised, then the eager-writing search (unrestricted, always the
    nearest sector -- the Figure 1 configuration) picks its sector.  The
    located sector is re-freed so utilization stays constant.
    """
    if not 0.0 < free_fraction <= 1.0:
        raise ValueError("free fraction must lie in (0, 1]")
    rng = random.Random(seed)
    disk = Disk(spec, store_data=False)
    freemap = FreeSpaceMap(disk.geometry)
    total = disk.geometry.total_sectors
    occupied = int(round((1.0 - free_fraction) * total))
    for sector in rng.sample(range(total), occupied):
        freemap.mark_used(sector)
    if freemap.free_sectors == 0:
        raise ValueError("no free sectors at this utilization")
    allocator = EagerAllocator(
        disk, freemap, block_sectors=1, policy=AllocationPolicy.NEAREST
    )
    total_locate = 0.0
    for _ in range(trials):
        # Random head position and rotational phase.
        disk.head_cylinder = rng.randrange(disk.geometry.num_cylinders)
        disk.head_head = rng.randrange(disk.geometry.tracks_per_cylinder)
        disk.clock.advance(rng.random() * disk.mechanics.rotation_time)
        # Align to the next slot boundary: the model counts whole sectors
        # skipped, with the head starting at a sector edge.
        slot = disk.mechanics.rotational_slot(disk.clock.now)
        partial = (1.0 - (slot % 1.0)) % 1.0
        disk.clock.advance(partial * disk.mechanics.sector_time)
        start = disk.clock.now
        block = allocator.allocate()
        cost = disk.write(block, 1, charge_scsi=False)
        # Positioning only: exclude the one-sector transfer.
        total_locate += cost.locate
        assert disk.clock.now >= start
        freemap.mark_free(block)
    return total_locate / trials


def simulate_track_fill(
    spec: DiskSpec,
    threshold_free_fraction: float,
    trials: int = 40,
    seed: int = 2,
) -> float:
    """Mean per-write latency filling empty tracks to a threshold (Fig. 2).

    Writes single sectors to an initially empty track, each write arriving
    at a random rotational phase (the model's random-arrival assumption),
    until only ``threshold_free_fraction`` of the track remains free; then
    pays one track switch and repeats.  Returns seconds per write including
    the amortised switch cost -- formula (11)'s quantity.
    """
    if not 0.0 <= threshold_free_fraction < 1.0:
        raise ValueError("threshold must lie in [0, 1)")
    rng = random.Random(seed)
    n = spec.sectors_per_track
    reserve = int(round(threshold_free_fraction * n))
    writes_per_track = n - reserve
    if writes_per_track <= 0:
        raise ValueError("threshold leaves no writable sectors")
    sector_time = spec.sector_time
    total = 0.0
    writes = 0
    for _ in range(trials):
        # One free-slot bitmask per track fill, searched with the same
        # bit-twiddling primitive the production free map uses.
        free_mask = (1 << n) - 1
        for _write in range(writes_per_track):
            # Arrivals are random but the head engages at a sector
            # boundary, matching the model's whole-sector accounting.
            phase = rng.randrange(n)
            chosen = nearest_set_bit(free_mask, n, phase)
            assert chosen is not None
            free_mask &= ~(1 << chosen)
            total += ((chosen - phase) % n) * sector_time
            writes += 1
        total += spec.head_switch_time  # switch to the next empty track
    return total / writes


def simulate_queued_workload(
    spec: DiskSpec,
    queue_depth: int = 1,
    policy: str = "fifo",
    workload: str = "random-update",
    requests: int = 400,
    think_seconds: float = 0.0002,
    seed: int = 3,
) -> Dict[str, float]:
    """Drive a queued open-loop write workload, host think time
    overlapped with disk service.

    The host submits ``requests`` writes of :data:`REQUEST_SECTORS` each,
    thinking ``think_seconds`` before each submission; up to
    ``queue_depth`` requests stay outstanding, serviced in ``policy``
    order.  The overlap is the pipeline approximation ``max(think,
    service)`` on the simulator's one clock: with the queue empty the
    disk is idle and the think advances the clock; with requests
    outstanding it happens during service already on the clock and is
    hidden.  At ``queue_depth=1`` every submit services synchronously, so
    every think is on the clock.  The approximation overstates overlap
    when think intervals exceed service times;
    :func:`repro.hosts.multihost.run_multihost` measures it instead.
    ``workload`` names a :func:`~repro.hosts.request_targets` stream
    (one of :data:`~repro.hosts.QUEUE_WORKLOADS`).

    Returns per-run scalars: elapsed seconds, mean/percentile service
    times, mean response time (arrival to completion), and throughput.
    """
    if requests <= 0:
        raise ValueError("request count must be positive")
    if not (think_seconds >= 0.0 and isfinite(think_seconds)):  # NaN too
        raise ValueError(
            f"think_seconds must be finite and non-negative, got {think_seconds!r}"
        )
    rng = random.Random(seed)
    disk = Disk(spec, store_data=False)
    scheduler = DiskScheduler(disk, policy=policy, queue_depth=queue_depth)
    aligned = disk.geometry.total_sectors // REQUEST_SECTORS
    start = disk.clock.now
    for lba in request_targets(rng, workload, aligned, requests):
        if think_seconds > 0.0 and not scheduler.outstanding:
            disk.clock.advance(think_seconds)
        scheduler.write(lba * REQUEST_SECTORS, REQUEST_SECTORS)
    scheduler.drain()
    elapsed = disk.clock.now - start
    service = scheduler.service_times.percentiles()
    response = scheduler.response_times
    response_pct = response.percentiles()
    return {
        "elapsed_seconds": elapsed,
        "mean_service_ms": scheduler.busy_seconds / scheduler.serviced * 1e3,
        "p50_service_ms": service["p50"] * 1e3,
        "p95_service_ms": service["p95"] * 1e3,
        "p99_service_ms": service["p99"] * 1e3,
        "p999_service_ms": service["p999"] * 1e3,
        "mean_response_ms": (
            response.sum / response.count * 1e3 if response.count else 0.0
        ),
        "p99_response_ms": response_pct["p99"] * 1e3,
        "p999_response_ms": response_pct["p999"] * 1e3,
        "requests_per_second": requests / elapsed if elapsed > 0 else 0.0,
        "max_outstanding": float(scheduler.max_outstanding),
    }
