"""The indirection map: logical block -> physical block (Section 3.1).

Eager writing gives data complete location independence, so the VLD keeps a
table mapping every logical block to wherever its current physical copy
landed.  The whole table lives in drive memory during normal operation
("we can keep the entire virtual log in disk memory", Section 3.2); the
on-disk virtual log of map *chunks* exists purely so the table survives
power loss.

With 4-byte entries per 4 KB physical block the map costs ~24 KB for the
paper's 24 MB disk -- a fraction of a percent of capacity, matching
Section 4.2.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.vlog.entries import UNMAPPED, entries_per_chunk


class IndirectionMap:
    """In-memory logical-to-physical block map, organised in chunks."""

    def __init__(self, num_logical_blocks: int, block_size: int = 4096) -> None:
        if num_logical_blocks <= 0:
            raise ValueError("map must cover at least one block")
        self.num_logical_blocks = num_logical_blocks
        self.chunk_capacity = entries_per_chunk(block_size)
        self.num_chunks = -(-num_logical_blocks // self.chunk_capacity)
        self._entries: List[int] = [UNMAPPED] * num_logical_blocks

    def _check(self, lba: int) -> None:
        if not 0 <= lba < self.num_logical_blocks:
            raise ValueError(f"logical block {lba} out of range")

    def get(self, lba: int) -> Optional[int]:
        """Physical block for a logical block, or ``None`` when unmapped."""
        self._check(lba)
        value = self._entries[lba]
        return None if value == UNMAPPED else value

    def set(self, lba: int, physical_block: int) -> Optional[int]:
        """Map ``lba`` to a physical block; returns the displaced mapping.

        The displaced physical block (if any) is exactly the "freed by
        overwrite" detection of Section 4.2: re-use of a logical address
        tells the VLD the old physical copy is dead.
        """
        if not 0 <= lba < self.num_logical_blocks:
            self._check(lba)  # raises
        if not 0 <= physical_block < UNMAPPED:
            raise ValueError(f"physical block {physical_block} unencodable")
        old = self._entries[lba]
        self._entries[lba] = physical_block
        return None if old == UNMAPPED else old

    def clear(self, lba: int) -> Optional[int]:
        """Unmap a logical block (an explicit trim); returns old mapping."""
        self._check(lba)
        old = self._entries[lba]
        self._entries[lba] = UNMAPPED
        return None if old == UNMAPPED else old

    def chunk_id_of(self, lba: int) -> int:
        self._check(lba)
        return lba // self.chunk_capacity

    def chunk_entries(self, chunk_id: int) -> List[int]:
        """The raw entry values of one chunk (for a log record payload)."""
        if not 0 <= chunk_id < self.num_chunks:
            raise ValueError(f"chunk {chunk_id} out of range")
        lo = chunk_id * self.chunk_capacity
        hi = min(lo + self.chunk_capacity, self.num_logical_blocks)
        return self._entries[lo:hi]

    def load_chunk(self, chunk_id: int, entries: List[int]) -> None:
        """Install recovered chunk contents."""
        lo = chunk_id * self.chunk_capacity
        hi = min(lo + self.chunk_capacity, self.num_logical_blocks)
        if len(entries) != hi - lo:
            raise ValueError(
                f"chunk {chunk_id} expects {hi - lo} entries, "
                f"got {len(entries)}"
            )
        self._entries[lo:hi] = entries

    def load_chunks(self, chunks: Dict[int, List[int]]) -> None:
        """Install a recovered map, resetting unmentioned chunks."""
        self._entries = [UNMAPPED] * self.num_logical_blocks
        for chunk_id, entries in chunks.items():
            self.load_chunk(chunk_id, entries)

    def mapped_count(self) -> int:
        """Number of logical blocks currently mapped."""
        return sum(1 for e in self._entries if e != UNMAPPED)

    def items(self):
        """Yield (lba, physical_block) for every mapped block."""
        for lba, value in enumerate(self._entries):
            if value != UNMAPPED:
                yield lba, value
