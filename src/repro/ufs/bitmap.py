"""Allocation bitmaps (inodes, fragments) for the UFS cylinder groups.

A :class:`Bitmap` is one Python integer (bit ``i`` set = item ``i`` in
use), the representation :class:`~repro.disk.freemap.FreeSpaceMap` proved
(DESIGN.md sections 8 and 17): "first free at or after the goal" is one
find-first-set on the complement, and "first run of ``count`` free bits"
is a doubling-shift fold (:func:`~repro.disk.freemap.fold_free_runs`)
ANDed with a mask of permitted starts, then one find-first-set -- a
handful of big-int operations where a loop would test every bit.  The
per-bit loops these replaced live on in ``tests/ufs/reference_bitmap.py``
as the differential oracle: same answer for every input.
"""

from __future__ import annotations

from typing import Optional

from repro.disk.freemap import (
    aligned_starts_mask,
    fold_free_runs,
    nearest_set_bit,
    popcount,
)


class Bitmap:
    """A bitmap over ``nbits`` items; bit set = in use."""

    def __init__(self, nbits: int, raw: Optional[bytes] = None) -> None:
        if nbits <= 0:
            raise ValueError("bitmap must cover at least one bit")
        self.nbits = nbits
        self._nbytes = (nbits + 7) // 8
        self._mask = (1 << nbits) - 1
        #: The on-disk image as a little-endian integer.  Bits past
        #: ``nbits`` in the last byte are carried untouched for pack().
        self._bits = 0
        if raw is not None:
            if len(raw) < self._nbytes:
                raise ValueError("raw bitmap too short")
            self._bits = int.from_bytes(raw[: self._nbytes], "little")
        self._free = nbits - popcount(self._bits & self._mask)

    def _check(self, index: int) -> None:
        if not 0 <= index < self.nbits:
            raise IndexError(f"bit {index} out of range")

    def test(self, index: int) -> bool:
        self._check(index)
        return bool(self._bits >> index & 1)

    def set(self, index: int) -> None:
        self.set_run(index, 1)

    def clear(self, index: int) -> None:
        self.clear_run(index, 1)

    def set_run(self, start: int, count: int) -> None:
        """Mark bits ``start .. start+count-1`` used (idempotent)."""
        run = self._run(start, count)
        self._free -= count - popcount(self._bits & run)
        self._bits |= run

    def clear_run(self, start: int, count: int) -> None:
        """Mark bits ``start .. start+count-1`` free (idempotent)."""
        run = self._run(start, count)
        self._free += popcount(self._bits & run)
        self._bits &= ~run

    def _run(self, start: int, count: int) -> int:
        if count < 0:
            raise ValueError("count must be non-negative")
        if start < 0 or start + count > self.nbits:
            raise IndexError(
                f"bits {start}..{start + count - 1} out of range"
            )
        return ((1 << count) - 1) << start

    @property
    def free_count(self) -> int:
        return self._free

    def _free_mask(self) -> int:
        return ~self._bits & self._mask

    def find_free(self, goal: int = 0) -> Optional[int]:
        """First free bit at/after ``goal``, wrapping; None when full."""
        return nearest_set_bit(
            self._free_mask(), self.nbits, goal % self.nbits
        )

    def find_free_run(
        self, count: int, align: int = 1, goal: int = 0
    ) -> Optional[int]:
        """First aligned run of ``count`` free bits at/after ``goal``."""
        if count <= 0 or align <= 0:
            raise ValueError("count and align must be positive")
        starts = fold_free_runs(self._free_mask(), count)
        if align > 1:
            starts &= aligned_starts_mask(self.nbits, align)
        return nearest_set_bit(starts, self.nbits, (goal // align) * align)

    def find_frag_run(
        self, count: int, frags_per_block: int, goal: int = 0
    ) -> Optional[int]:
        """A run of ``count`` free bits that stays inside one block's frags.

        Prefers blocks that are already partially used (classic FFS keeps
        fragments together so whole blocks stay allocatable), falling back
        to carving a fresh block.
        """
        if not 0 < count <= frags_per_block:
            raise ValueError("fragment run must fit within one block")
        nblocks = self.nbits // frags_per_block
        if nblocks == 0:
            return None
        free = self._free_mask()
        bases = aligned_starts_mask(nblocks * frags_per_block, frags_per_block)
        # Multiplying the block bases by a run of ones spreads each base
        # over the following bits (runs are narrower than a block, so
        # nothing carries): first over the starts that keep a run inside
        # its block, then over the whole of every still-untouched block.
        starts = fold_free_runs(free, count) & (
            bases * ((1 << (frags_per_block - count + 1)) - 1)
        )
        untouched = (fold_free_runs(free, frags_per_block) & bases) * (
            (1 << frags_per_block) - 1
        )
        start_block = (goal // frags_per_block) % nblocks
        return nearest_set_bit(
            starts & ~untouched or starts,
            self.nbits,
            start_block * frags_per_block,
        )

    def pack(self) -> bytes:
        return self._bits.to_bytes(self._nbytes, "little")
