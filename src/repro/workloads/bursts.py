"""Bursts of updates separated by idle intervals (Figures 10, 11).

"We modify the benchmark of Section 5.3 to perform a burst of random
updates, pause, and repeat.  The disk utilization is kept at 80 %."
(Section 5.5.)  During the pauses the LFS cleaner or the VLD compactor may
run; the latency reported is the steady-state mean per 4 KB write.
"""

from __future__ import annotations

import random

from repro.fs.api import FileSystem
from repro.sim.stats import LatencyRecorder
from repro.workloads.random_update import IO_BYTES

#: Bursts run before the measured ones, to reach steady state.
WARMUP_BURSTS = 1


def run_bursts(
    fs: FileSystem,
    path: str,
    file_bytes: int,
    burst_bytes: int,
    idle_seconds: float,
    bursts: int,
    seed: int = 0xB025,
) -> LatencyRecorder:
    """Run ``bursts`` measured bursts of ``burst_bytes`` random synchronous
    updates each, after :data:`WARMUP_BURSTS` unmeasured ones."""
    rng = random.Random(seed)
    nblocks = file_bytes // IO_BYTES
    writes_per_burst = max(1, burst_bytes // IO_BYTES)
    payload = b"\x5A" * IO_BYTES
    recorder = LatencyRecorder()
    for burst in range(WARMUP_BURSTS + bursts):
        for _ in range(writes_per_burst):
            block = rng.randrange(nblocks)
            breakdown = fs.write(path, block * IO_BYTES, payload, sync=True)
            if burst >= WARMUP_BURSTS:
                recorder.record(breakdown)
        fs.idle(idle_seconds)
    return recorder
