"""LFS on-disk layout.

::

    block 0                       superblock
    blocks 1 .. 2*cp_blocks       two alternating checkpoint slots
    seg_start ..                  segments (summary block + data blocks)

Segments are 0.5 MB (128 blocks) as in the paper's LLD port; the first
block of each segment is its summary.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

_SB = struct.Struct("<8sIIIIII")
_MAGIC = b"REPROLFS"


@dataclass
class LFSSuperblock:
    block_size: int
    total_blocks: int
    segment_blocks: int
    num_segments: int
    seg_start: int
    max_inodes: int

    def pack(self) -> bytes:
        raw = _SB.pack(
            _MAGIC,
            self.block_size,
            self.total_blocks,
            self.segment_blocks,
            self.num_segments,
            self.seg_start,
            self.max_inodes,
        )
        return raw + bytes(self.block_size - len(raw))


class LFSLayout:
    """Derived layout facts."""

    #: Checkpoint slots (alternating).
    CHECKPOINT_SLOTS = 2

    def __init__(self, sb: LFSSuperblock) -> None:
        self.sb = sb
        self.block_size = sb.block_size
        self.segment_blocks = sb.segment_blocks
        #: data blocks per segment (one block is the summary)
        self.data_blocks_per_segment = sb.segment_blocks - 1
        self.segment_bytes = sb.segment_blocks * sb.block_size

    @classmethod
    def design(
        cls,
        total_blocks: int,
        block_size: int = 4096,
        segment_bytes: int = 512 << 10,
        max_inodes: int = 4096,
    ) -> "LFSLayout":
        segment_blocks = segment_bytes // block_size
        if segment_blocks < 2:
            raise ValueError("segments must hold a summary plus data")
        cp_blocks = cls.checkpoint_slot_blocks(
            block_size, max_inodes, total_blocks
        )
        seg_start = 1 + cls.CHECKPOINT_SLOTS * cp_blocks
        num_segments = (total_blocks - seg_start) // segment_blocks
        if num_segments < 4:
            raise ValueError("device too small for a useful log")
        sb = LFSSuperblock(
            block_size=block_size,
            total_blocks=total_blocks,
            segment_blocks=segment_blocks,
            num_segments=num_segments,
            seg_start=seg_start,
            max_inodes=max_inodes,
        )
        return cls(sb)

    @staticmethod
    def checkpoint_slot_blocks(
        block_size: int, max_inodes: int, total_blocks: int
    ) -> int:
        """Blocks per checkpoint slot: header + imap + segment usage."""
        imap_bytes = max_inodes * 4
        # worst-case segment count if the whole device were segments
        max_segments = total_blocks // 2 + 1
        usage_bytes = max_segments * 12
        payload = imap_bytes + usage_bytes
        return 1 + -(-payload // block_size)

    # -- addressing -------------------------------------------------------

    def checkpoint_slot_start(self, slot: int) -> int:
        if not 0 <= slot < self.CHECKPOINT_SLOTS:
            raise ValueError("bad checkpoint slot")
        cp_blocks = (self.sb.seg_start - 1) // self.CHECKPOINT_SLOTS
        return 1 + slot * cp_blocks

    def segment_start(self, segment: int) -> int:
        self._check_segment(segment)
        return self.sb.seg_start + segment * self.segment_blocks

    def segment_of_block(self, lba: int) -> int:
        if lba < self.sb.seg_start:
            raise ValueError(f"block {lba} is not in the log area")
        segment = (lba - self.sb.seg_start) // self.segment_blocks
        self._check_segment(segment)
        return segment

    def _check_segment(self, segment: int) -> None:
        if not 0 <= segment < self.sb.num_segments:
            raise ValueError(f"segment {segment} out of range")
