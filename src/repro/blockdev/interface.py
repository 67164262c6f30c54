"""The standard block-device interface.

A device exposes ``num_blocks`` logical blocks of ``block_size`` bytes.
Reads return data plus a latency :class:`~repro.sim.stats.Breakdown`; writes
return the breakdown.  Multi-block variants exist so log-structured file
systems can hand whole segments to the device in one command, as the MIT
logical disk does.

Beyond the five I/O calls and ``idle`` the contract covers what every
layer of a stack relies on: the one :class:`~repro.sim.clock.SimClock`
the stack runs on (``clock``), ``trim``, ``flush`` and the
``power_down`` / ``crash`` / ``recover`` lifecycle.  Those five calls
have concrete defaults -- the behaviour of a device with no mapping and
no volatile state -- so any device stacks on any other without a probe
for what the one beneath can do.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Optional, Tuple

from repro.sim.clock import SimClock
from repro.sim.stats import Breakdown

if TYPE_CHECKING:  # repro.vlog sits above this module in the layer order
    from repro.vlog.recovery import RecoveryOutcome


class BlockDevice(abc.ABC):
    """Abstract logical block device."""

    block_size: int
    num_blocks: int
    #: The simulated clock every layer of this device's stack runs on.
    clock: SimClock

    @abc.abstractmethod
    def read_block(self, lba: int) -> Tuple[bytes, Breakdown]:
        """Read one logical block."""

    @abc.abstractmethod
    def write_block(self, lba: int, data: Optional[bytes] = None) -> Breakdown:
        """Write one logical block (zeros when ``data`` is omitted)."""

    @abc.abstractmethod
    def read_blocks(self, lba: int, count: int) -> Tuple[bytes, Breakdown]:
        """Read ``count`` logically contiguous blocks in one command."""

    @abc.abstractmethod
    def write_blocks(
        self, lba: int, count: int, data: Optional[bytes] = None
    ) -> Breakdown:
        """Write ``count`` logically contiguous blocks in one command."""

    @abc.abstractmethod
    def write_partial(self, lba: int, offset: int, data: bytes) -> Breakdown:
        """Write a sector-aligned byte range inside one block.

        Used for UFS fragment writes (1 KB pieces of a 4 KB block).  An
        update-in-place disk writes just the covered sectors; a virtual log
        disk must read-modify-write the whole physical block -- the
        "internal fragmentation ... biases against the performance of UFS
        running on the VLD" of Section 4.2.
        """

    @abc.abstractmethod
    def idle(self, seconds: float) -> None:
        """Let idle time pass at the device.

        The regular disk just waits; the Virtual Log Disk spends the time
        compacting free space with the drive's internal bandwidth
        (Section 5.5).  Either way the clock ends up ``seconds`` later.
        Every device must implement this -- a concrete body that raised
        at call time let subclasses silently miss it.
        """

    def trim(self, lba: int, count: int = 1) -> Breakdown:
        """Tell the device the blocks no longer hold live data.

        A device that keeps a mapping unmaps them (they read back as
        zeros); one without a mapping has nothing to release, so the
        default validates the range and costs nothing.
        """
        self.check_lba(lba, count)
        return Breakdown()

    def flush(self) -> Breakdown:
        """Make every acknowledged write durable.  The default device
        acknowledges a write once it is on the media: nothing to do."""
        return Breakdown()

    def power_down(self) -> Breakdown:
        """Orderly shutdown: make everything acknowledged durable.  The
        default finishes queued work (an idle grant of no time)."""
        self.idle(0.0)
        return Breakdown()

    def crash(self) -> None:
        """Power loss: volatile state is gone and only :meth:`recover`
        may run next.  The default device has no volatile state."""

    def recover(self) -> RecoveryOutcome:
        """Rebuild volatile state from the media after :meth:`crash`.
        The default is the fold of no outcomes: a device with nothing
        to recover."""
        from repro.vlog.recovery import fold_outcomes

        return fold_outcomes([])

    def check_lba(self, lba: int, count: int = 1) -> None:
        if count <= 0:
            raise ValueError("count must be positive")
        if not (0 <= lba and lba + count <= self.num_blocks):
            raise ValueError(
                f"blocks [{lba}, {lba + count}) outside device of "
                f"{self.num_blocks} blocks"
            )

    def check_partial(self, lba: int, offset: int, data: bytes) -> None:
        """Validate a :meth:`write_partial`: one block, and a byte range
        that starts and ends inside it."""
        self.check_lba(lba, 1)
        if offset < 0 or offset + len(data) > self.block_size:
            raise ValueError("partial write outside the block")

    def check_data(self, data: Optional[bytes], count: int) -> bytes:
        """Validate/normalise a data buffer for ``count`` blocks."""
        expected = count * self.block_size
        if data is None:
            return bytes(expected)
        if len(data) != expected:
            raise ValueError(f"data length {len(data)} != {expected}")
        return data

    @property
    def capacity_bytes(self) -> int:
        return self.num_blocks * self.block_size
