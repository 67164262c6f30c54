"""The large-file benchmark (Figure 7).

"...write a 10 MB file sequentially, read it back sequentially, write 10 MB
of data randomly to the same file, read it back sequentially again, and
finally read 10 MB of random data from the file."  Writes are asynchronous
except for an additional synchronous random-write phase run on the UFS
configurations.  Results are bandwidths in MB/s per phase.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict

from repro.fs.api import FileSystem
from repro.workloads.random_update import IO_BYTES

_MB = 1 << 20


@dataclass
class LargeFileResult:
    bandwidths: Dict[str, float] = field(default_factory=dict)

    PHASES = (
        "seq_write",
        "seq_read",
        "rand_write_async",
        "rand_write_sync",
        "seq_read_again",
        "rand_read",
    )


def run_large_file(
    fs: FileSystem,
    file_bytes: int = 10 * _MB,
    include_sync_phase: bool = True,
    seed: int = 0x10C5,
    verify: bool = False,
) -> LargeFileResult:
    """Run all phases against a fresh ``/large`` file."""
    clock = fs.clock
    rng = random.Random(seed)
    result = LargeFileResult()
    nblocks = file_bytes // IO_BYTES
    path = "/large"
    fs.create(path)

    def bandwidth(elapsed: float) -> float:
        return (file_bytes / _MB) / elapsed if elapsed > 0 else float("inf")

    # Phase 1: sequential write (async), settled with a sync so the phase
    # reflects actual disk bandwidth rather than buffer absorption.
    start = clock.now
    for i in range(nblocks):
        fs.write(path, i * IO_BYTES, _pattern(i, IO_BYTES))
    fs.sync()
    result.bandwidths["seq_write"] = bandwidth(clock.now - start)

    # Phase 2: sequential read after a cache flush.
    fs.drop_caches()
    start = clock.now
    for i in range(nblocks):
        data, _ = fs.read(path, i * IO_BYTES, IO_BYTES)
        if verify and data != _pattern(i, IO_BYTES):
            raise AssertionError(f"sequential read mismatch at block {i}")
    result.bandwidths["seq_read"] = bandwidth(clock.now - start)

    # Phase 3: random write, asynchronous.
    start = clock.now
    for _ in range(nblocks):
        block = rng.randrange(nblocks)
        fs.write(path, block * IO_BYTES, _pattern(block + 1, IO_BYTES))
    fs.sync()
    result.bandwidths["rand_write_async"] = bandwidth(clock.now - start)

    # Phase 3b: random write, synchronous (the paper runs this on UFS).
    if include_sync_phase:
        start = clock.now
        for _ in range(nblocks):
            block = rng.randrange(nblocks)
            fs.write(
                path, block * IO_BYTES, _pattern(block + 2, IO_BYTES),
                sync=True,
            )
        result.bandwidths["rand_write_sync"] = bandwidth(clock.now - start)

    # Phase 4: sequential read again (spatial locality destroyed by the
    # random writes on log-structured/eager layouts).
    fs.drop_caches()
    start = clock.now
    for i in range(nblocks):
        fs.read(path, i * IO_BYTES, IO_BYTES)
    result.bandwidths["seq_read_again"] = bandwidth(clock.now - start)

    # Phase 5: random read.
    fs.drop_caches()
    start = clock.now
    for _ in range(nblocks):
        fs.read(path, rng.randrange(nblocks) * IO_BYTES, IO_BYTES)
    result.bandwidths["rand_read"] = bandwidth(clock.now - start)

    return result


def _pattern(tag: int, nbytes: int) -> bytes:
    return bytes([tag % 251]) * nbytes
