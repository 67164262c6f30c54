"""Random synchronous small updates (Figures 8, 9; Table 2).

"We create a single file of a certain size.  Then we repeatedly choose a
random 4 KB block to update.  There is no idle time between writes.  For
UFS, the 'write' system call does not return until the block is written to
the disk surface.  For LFS, we assume that the 6.1 MB file buffer cache is
made of NVRAM and we do not flush to disk until the buffer cache is full."
(Section 5.3.)
"""

from __future__ import annotations

import random

from repro.fs.api import FileSystem
from repro.sim.stats import LatencyRecorder

#: 4 KB: one update here and in the bursts of Section 5.5, and one I/O
#: of the large-file benchmark (Figure 7).
IO_BYTES = 4096


def prepare_file(fs: FileSystem, path: str, file_bytes: int) -> None:
    """Create and fully populate the update target file, 64 blocks per
    write."""
    fs.create(path)
    chunk = bytes(IO_BYTES) * 64
    offset = 0
    while offset < file_bytes:
        piece = min(len(chunk), file_bytes - offset)
        fs.write(path, offset, chunk[:piece])
        offset += piece
    fs.sync()
    fs.drop_caches()


def run_random_updates(
    fs: FileSystem,
    path: str,
    file_bytes: int,
    updates: int,
    warmup: int = 0,
    seed: int = 0xF168,
) -> LatencyRecorder:
    """Steady-state random synchronous block updates; returns the
    breakdowns of the ``updates`` writes after the ``warmup`` ones."""
    rng = random.Random(seed)
    nblocks = file_bytes // IO_BYTES
    payload = b"\xA5" * IO_BYTES
    recorder = LatencyRecorder()
    for i in range(warmup + updates):
        block = rng.randrange(nblocks)
        breakdown = fs.write(path, block * IO_BYTES, payload, sync=True)
        if i >= warmup:
            recorder.record(breakdown)
    return recorder
