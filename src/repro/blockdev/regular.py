"""The regular disk: a trivial logical-to-physical identity mapping.

Logical block ``i`` lives at physical sectors ``[i * spb, (i+1) * spb)``.
This is the update-in-place baseline: whatever locality the file system
arranges in logical addresses is exactly the physical locality it gets --
and every in-place update pays the seek plus (on average) half-rotation the
paper's Section 2.1 contrasts eager writing against.

All media traffic flows through a :class:`~repro.sched.DiskScheduler`; at
the default ``queue_depth=1`` with FIFO the scheduler services each
request at submit time, issuing the identical ``disk.read``/``disk.write``
call the seed made directly.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple, Union

from repro.blockdev.interface import BlockDevice
from repro.disk.disk import Disk
from repro.sched.policies import SchedulingPolicy
from repro.sched.scheduler import DiskScheduler
from repro.sim.stats import Breakdown


class RegularDisk(BlockDevice):
    """Identity-mapped block device over a simulated disk.

    Args:
        disk: The simulated disk.
        block_size: Logical block size in bytes.
        queue_depth: Outstanding-request bound for the scheduler.
        sched: Scheduling policy name (``fifo``/``scan``/``satf``) or
            instance.
    """

    def __init__(
        self,
        disk: Disk,
        block_size: int = 4096,
        queue_depth: int = 1,
        sched: Union[str, SchedulingPolicy] = "fifo",
    ) -> None:
        if block_size % disk.sector_bytes != 0:
            raise ValueError("block size must be a multiple of the sector size")
        self.disk = disk
        self.clock = disk.clock
        self.block_size = block_size
        self.sectors_per_block = block_size // disk.sector_bytes
        if disk.geometry.sectors_per_track % self.sectors_per_block != 0:
            raise ValueError(
                "blocks must not straddle track boundaries "
                f"({disk.geometry.sectors_per_track} sectors/track, "
                f"{self.sectors_per_block} sectors/block)"
            )
        self.num_blocks = disk.total_sectors // self.sectors_per_block
        self.scheduler = DiskScheduler(
            disk, policy=sched, queue_depth=queue_depth
        )

    def _sector_of(self, lba: int) -> int:
        return lba * self.sectors_per_block

    def read_block(self, lba: int) -> Tuple[bytes, Breakdown]:
        return self.read_blocks(lba, 1)

    def write_block(self, lba: int, data: Optional[bytes] = None) -> Breakdown:
        return self.write_blocks(lba, 1, data)

    def read_blocks(self, lba: int, count: int) -> Tuple[bytes, Breakdown]:
        self.check_lba(lba, count)
        return self.scheduler.read(
            self._sector_of(lba), count * self.sectors_per_block
        )

    def write_blocks(
        self, lba: int, count: int, data: Optional[bytes] = None
    ) -> Breakdown:
        self.check_lba(lba, count)
        data = self.check_data(data, count)
        self.scheduler.write(
            self._sector_of(lba), count * self.sectors_per_block, data
        )
        # At depth 1 this is exactly the submitted write's breakdown; at
        # greater depth it covers whatever the submission serviced (the
        # queue-aware metrics layer attributes the rest via clock gaps).
        return self.scheduler.take_breakdown()

    def idle(self, seconds: float) -> None:
        if not 0.0 <= seconds < math.inf:
            raise ValueError(f"idle time must be finite and non-negative: {seconds!r}")
        # Queue-emptiness is the idle signal: the queue drains first, and
        # only then does idle wall-clock time pass.
        self.scheduler.barrier()
        self.clock.advance(seconds)

    def flush(self) -> Breakdown:
        # Beyond depth 1 a write is acknowledged once it is queued.
        return self.scheduler.barrier()

    def crash(self) -> None:
        """Power loss: queued writes never reached the media.  There is
        no other volatile state -- the mapping is arithmetic."""
        self.scheduler.discard_pending()

    def write_partial(self, lba: int, offset: int, data: bytes) -> Breakdown:
        self.check_partial(lba, offset, data)
        sector_bytes = self.disk.sector_bytes
        if offset % sector_bytes != 0 or len(data) % sector_bytes != 0:
            raise ValueError("partial writes must be sector aligned")
        start = self._sector_of(lba) + offset // sector_bytes
        self.scheduler.write(start, len(data) // sector_bytes, data)
        return self.scheduler.take_breakdown()
