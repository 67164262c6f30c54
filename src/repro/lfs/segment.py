"""Segments: the summary-block format and the segment writer.

Every segment starts with a summary block describing the blocks that follow
-- (kind, inode number, file block index) per slot -- plus a monotonically
increasing flush sequence number.  Summaries serve two masters: the cleaner
(deciding which blocks of a victim segment are live) and crash recovery
(rolling forward from a checkpoint).

The writer implements the LLD's partial-segment semantics (Section 4.4):
a ``sync`` with the segment filled above the *partial segment threshold*
(75 % in the experiments) flushes it as if it were full and moves on; below
the threshold, the filled prefix is written but the in-memory copy is
retained to receive more writes, with only the delta (plus the updated
summary) written on the next sync.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from repro.blockdev.interface import BlockDevice
from repro.lfs.layout import LFSLayout
from repro.sim.stats import Breakdown


class BlockKind:
    DATA = 1
    INODE_BLOCK = 2
    INDIRECT = 3

    #: file-block codes for indirect blocks (stored in the summary's fblk
    #: field): -1 single indirect, -2 double indirect root, -(3+i) the i-th
    #: level-1 block under the double indirect root.
    SINGLE_INDIRECT = -1
    DOUBLE_INDIRECT = -2

    @staticmethod
    def level1(index: int) -> int:
        return -(3 + index)


_SUM_HEADER = struct.Struct("<8sQIId")
_SUM_ENTRY = struct.Struct("<Iiq")
_SUM_MAGIC = b"LFSSUMM1"


@dataclass
class SummaryEntry:
    kind: int
    inum: int
    fblk: int  # file block index, or a BlockKind indirect code


@dataclass
class SegmentSummary:
    """Parsed summary block."""

    seqno: int
    timestamp: float
    entries: List[SummaryEntry] = field(default_factory=list)

    def pack(self, block_size: int) -> bytes:
        header = _SUM_HEADER.pack(
            _SUM_MAGIC, self.seqno, len(self.entries), 0, self.timestamp
        )
        body = b"".join(
            _SUM_ENTRY.pack(e.kind, e.inum, e.fblk) for e in self.entries
        )
        raw = header + body
        if len(raw) > block_size:
            raise ValueError("summary does not fit in one block")
        return raw + bytes(block_size - len(raw))

    @classmethod
    def unpack(cls, raw: bytes) -> Optional["SegmentSummary"]:
        if len(raw) < _SUM_HEADER.size:
            return None
        magic, seqno, count, _pad, ts = _SUM_HEADER.unpack(
            raw[: _SUM_HEADER.size]
        )
        if magic != _SUM_MAGIC:
            return None
        entries = []
        offset = _SUM_HEADER.size
        for _ in range(count):
            kind, inum, fblk = _SUM_ENTRY.unpack(
                raw[offset : offset + _SUM_ENTRY.size]
            )
            entries.append(SummaryEntry(kind, inum, fblk))
            offset += _SUM_ENTRY.size
        return cls(seqno=seqno, timestamp=ts, entries=entries)


class SegmentWriter:
    """Accumulates dirty blocks into the current segment and writes them.

    ``pick_free_segment`` is supplied by the owner (it consults the segment
    usage table, possibly running the cleaner first).  Summaries are
    stamped with the device clock's reading.
    """

    def __init__(
        self,
        device: BlockDevice,
        layout: LFSLayout,
        pick_free_segment: Callable[[], int],
        partial_threshold: float = 0.75,
    ) -> None:
        if not 0.0 < partial_threshold <= 1.0:
            raise ValueError("partial threshold must lie in (0, 1]")
        self.device = device
        self.layout = layout
        self.pick_free_segment = pick_free_segment
        self.partial_threshold = partial_threshold
        self.current_segment: Optional[int] = None
        self._staged: List[Tuple[SummaryEntry, bytes]] = []
        self._written_prefix = 0  # staged blocks already on disk
        self.flush_seqno = 0
        self.segments_written = 0
        self.partial_flushes = 0

    # ------------------------------------------------------------------

    @property
    def staged_blocks(self) -> int:
        return len(self._staged)

    @property
    def fill_fraction(self) -> float:
        return len(self._staged) / self.layout.data_blocks_per_segment

    def room(self) -> int:
        return self.layout.data_blocks_per_segment - len(self._staged)

    def stage(
        self, kind: int, inum: int, fblk: int, data: bytes
    ) -> Tuple[int, Breakdown]:
        """Add one block to the current segment; returns its log address.

        May write out the (now full) segment as a side effect.
        """
        breakdown = Breakdown()
        if len(data) != self.layout.block_size:
            raise ValueError("staged blocks must be exactly one block")
        if self.current_segment is None:
            chosen = self.pick_free_segment()
            if self.current_segment is None:
                # pick_free_segment may clean, which stages blocks and can
                # open (and even retire) segments re-entrantly; only adopt
                # our choice when no segment was opened underneath us.
                self.current_segment = chosen
        address = (
            self.layout.segment_start(self.current_segment)
            + 1
            + len(self._staged)
        )
        self._staged.append((SummaryEntry(kind, inum, fblk), data))
        if self.room() == 0:
            breakdown.add(self.finish_segment())
        return address, breakdown

    def staged_data(self, address: int) -> Optional[bytes]:
        """Contents of a staged-but-unretired block, if ``address`` is in
        the current segment's buffer.

        Addresses are handed out at stage time, before the media write, so
        readers must consult this buffer or they would see stale disk
        contents.
        """
        if self.current_segment is None:
            return None
        start = self.layout.segment_start(self.current_segment) + 1
        index = address - start
        if 0 <= index < len(self._staged):
            return self._staged[index][1]
        return None

    def crash(self) -> None:
        """Power loss: the staged blocks, the part of them already written
        and the segment they filled were volatile, and are gone.  The
        segment is not retired, so the next sync must not finish it."""
        self._staged.clear()
        self._written_prefix = 0
        self.current_segment = None

    # ------------------------------------------------------------------

    def _summary(self) -> SegmentSummary:
        return SegmentSummary(
            seqno=self.flush_seqno,
            timestamp=self.device.clock.now,
            entries=[entry for entry, _data in self._staged],
        )

    def finish_segment(self) -> Breakdown:
        """Write out everything staged and retire the segment."""
        breakdown = Breakdown()
        if self.current_segment is None or not self._staged:
            return breakdown
        self.flush_seqno += 1
        start = self.layout.segment_start(self.current_segment)
        payload = self._summary().pack(self.layout.block_size) + b"".join(
            data for _entry, data in self._staged
        )
        breakdown.add(
            self.device.write_blocks(start, 1 + len(self._staged), payload)
        )
        self._staged.clear()
        self._written_prefix = 0
        self.current_segment = None
        self.segments_written += 1
        return breakdown

    def sync(self) -> Breakdown:
        """Apply the partial-segment-threshold policy to a sync request."""
        breakdown = Breakdown()
        if self.current_segment is None or not self._staged:
            return breakdown
        if self.fill_fraction >= self.partial_threshold:
            return self.finish_segment()
        # Partial flush: updated summary plus the not-yet-written delta.
        self.flush_seqno += 1
        self.partial_flushes += 1
        start = self.layout.segment_start(self.current_segment)
        breakdown.add(
            self.device.write_block(
                start, self._summary().pack(self.layout.block_size)
            )
        )
        delta = self._staged[self._written_prefix :]
        if delta:
            first = start + 1 + self._written_prefix
            payload = b"".join(data for _entry, data in delta)
            breakdown.add(
                self.device.write_blocks(first, len(delta), payload)
            )
            self._written_prefix = len(self._staged)
        return breakdown
