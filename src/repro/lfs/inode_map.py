"""The LFS inode map and segment usage table.

The inode map translates inode numbers to the log address of the inode's
current copy (an inode *block* holds several inodes; the map records block
address and slot).  The segment usage table records live bytes and a
last-write timestamp per segment -- exactly what the cleaning policies of
Rosenblum & Ousterhout consume.

Both tables are volatile during operation and persisted by checkpoints.
"""

from __future__ import annotations

import struct
from typing import Container, List, Optional, Tuple

#: Inodes per 4 KB inode block (matches the shared 128-byte inode).
INODES_PER_BLOCK_SLOT_BITS = 5
SLOT_MASK = (1 << INODES_PER_BLOCK_SLOT_BITS) - 1


class InodeMap:
    """inum -> (inode block address, slot), packed into a u32 each."""

    def __init__(self, max_inodes: int) -> None:
        if max_inodes <= 1:
            raise ValueError("need room for at least the root inode")
        self.max_inodes = max_inodes
        self._entries: List[int] = [0] * max_inodes  # 0 = free/unknown
        #: No inum below this is unused (see :meth:`lowest_unused`):
        #: raised by the searches, lowered by whatever frees an entry.
        self._floor = 1

    def _check(self, inum: int) -> None:
        if not 0 < inum < self.max_inodes:
            raise ValueError(f"inode {inum} out of range")

    def get(self, inum: int) -> Optional[Tuple[int, int]]:
        """(block address, slot) of an inode's current copy."""
        self._check(inum)
        packed = self._entries[inum]
        if packed == 0:
            return None
        return packed >> INODES_PER_BLOCK_SLOT_BITS, packed & SLOT_MASK

    def set(self, inum: int, address: int, slot: int) -> None:
        self._check(inum)
        if not 0 <= slot <= SLOT_MASK:
            raise ValueError("slot out of range")
        if address <= 0:
            raise ValueError("address must be positive")
        self._entries[inum] = (address << INODES_PER_BLOCK_SLOT_BITS) | slot

    def clear(self, inum: int) -> None:
        self._check(inum)
        self._entries[inum] = 0
        self._floor = min(self._floor, inum)

    def allocated(self, inum: int) -> bool:
        self._check(inum)
        return self._entries[inum] != 0

    def alloc_inum(self) -> Optional[int]:
        """Lowest unused inode number (1 is conventionally the root)."""
        return self.lowest_unused(())

    def lowest_unused(self, held: Container[int]) -> Optional[int]:
        """Lowest inum that is free in the map and not in ``held`` (the
        caller's in-memory inodes that have not reached the map yet).

        The search resumes where the last one ended instead of walking
        the live prefix again: nothing below the floor can be unused
        until :meth:`clear` or a load lowers it, and every inum that
        leaves ``held`` without having been set must be cleared (LFS
        does: deleting an inode clears it, and a crash that empties the
        in-memory inodes is followed by a load)."""
        entries = self._entries
        for inum in range(self._floor, self.max_inodes):
            if entries[inum] == 0 and inum not in held:
                self._floor = inum
                return inum
        self._floor = self.max_inodes
        return None

    def live_inums(self):
        return (i for i in range(1, self.max_inodes) if self._entries[i])

    def entries_slice(self, lo: int, hi: int) -> List[int]:
        """Raw packed entries in [lo, hi) -- virtual-log chunk payloads."""
        if not 0 <= lo <= hi <= self.max_inodes:
            raise ValueError("slice out of range")
        return self._entries[lo:hi]

    def load_slice(self, lo: int, entries: List[int]) -> None:
        """Install raw packed entries starting at ``lo``."""
        if lo < 0 or lo + len(entries) > self.max_inodes:
            raise ValueError("slice out of range")
        self._entries[lo : lo + len(entries)] = entries
        self._floor = min(self._floor, max(lo, 1))

    # -- serialisation (checkpoints) --------------------------------------

    def pack(self) -> bytes:
        return struct.pack(f"<{self.max_inodes}I", *self._entries)

    def load(self, raw: bytes) -> None:
        self._entries = list(
            struct.unpack(f"<{self.max_inodes}I", raw[: self.max_inodes * 4])
        )
        self._floor = 1


class SegmentUsage:
    """Per-segment live-byte counts and ages."""

    _ENTRY = struct.Struct("<Id")

    def __init__(self, num_segments: int, segment_bytes: int) -> None:
        self.num_segments = num_segments
        self.segment_bytes = segment_bytes
        self.live_bytes: List[int] = [0] * num_segments
        self.last_write: List[float] = [0.0] * num_segments
        #: segments never written (or fully reclaimed and rewritable)
        self._clean: List[bool] = [True] * num_segments

    def _check(self, segment: int) -> None:
        if not 0 <= segment < self.num_segments:
            raise ValueError(f"segment {segment} out of range")

    def note_write(self, segment: int, nbytes: int, now: float) -> None:
        """A segment received ``nbytes`` of (live) data."""
        self._check(segment)
        self.live_bytes[segment] += nbytes
        self.last_write[segment] = now
        self._clean[segment] = False

    def note_dead(self, segment: int, nbytes: int) -> None:
        """``nbytes`` of a segment's contents became dead."""
        self._check(segment)
        self.live_bytes[segment] = max(0, self.live_bytes[segment] - nbytes)

    def mark_clean(self, segment: int) -> None:
        self._check(segment)
        self.live_bytes[segment] = 0
        self._clean[segment] = True

    def is_clean(self, segment: int) -> bool:
        self._check(segment)
        return self._clean[segment]

    def utilization(self, segment: int) -> float:
        self._check(segment)
        return self.live_bytes[segment] / self.segment_bytes

    def clean_segments(self, exclude: Optional[int] = None) -> List[int]:
        return [
            s
            for s in range(self.num_segments)
            if self._clean[s] and s != exclude
        ]

    def dirty_segments(self, exclude: Optional[int] = None) -> List[int]:
        return [
            s
            for s in range(self.num_segments)
            if not self._clean[s] and s != exclude
        ]

    def reclaimable(self, exclude: Optional[int] = None) -> List[int]:
        """Dirty segments with zero live bytes: free to reuse immediately."""
        return [
            s
            for s in self.dirty_segments(exclude)
            if self.live_bytes[s] == 0
        ]

    # -- serialisation (checkpoints) --------------------------------------

    def pack(self) -> bytes:
        pieces = [
            self._ENTRY.pack(self.live_bytes[s], self.last_write[s])
            for s in range(self.num_segments)
        ]
        flags = bytes(
            1 if self._clean[s] else 0 for s in range(self.num_segments)
        )
        return b"".join(pieces) + flags

    def load(self, raw: bytes) -> None:
        offset = 0
        for s in range(self.num_segments):
            live, ts = self._ENTRY.unpack(
                raw[offset : offset + self._ENTRY.size]
            )
            self.live_bytes[s] = live
            self.last_write[s] = ts
            offset += self._ENTRY.size
        for s in range(self.num_segments):
            self._clean[s] = raw[offset + s] == 1
