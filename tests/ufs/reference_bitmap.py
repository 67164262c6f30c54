"""The per-bit ``Bitmap`` that ``repro.ufs.bitmap`` replaced.

Kept verbatim as the differential oracle (``test_bitmap_differential.py``):
a ``bytearray`` and one ``test()`` per bit examined, so what each query
means can be read off its loop.  The production class answers from one
integer and must agree for every input.
"""

from __future__ import annotations

from typing import Optional


class ReferenceBitmap:
    """A bitmap over ``nbits`` items; bit set = in use (one loop per query)."""

    def __init__(self, nbits: int, raw: Optional[bytes] = None) -> None:
        if nbits <= 0:
            raise ValueError("bitmap must cover at least one bit")
        self.nbits = nbits
        nbytes = (nbits + 7) // 8
        if raw is None:
            self._bits = bytearray(nbytes)
        else:
            if len(raw) < nbytes:
                raise ValueError("raw bitmap too short")
            self._bits = bytearray(raw[:nbytes])
        self._free = sum(1 for i in range(nbits) if not self.test(i))

    def _check(self, index: int) -> None:
        if not 0 <= index < self.nbits:
            raise IndexError(f"bit {index} out of range")

    def test(self, index: int) -> bool:
        self._check(index)
        return bool(self._bits[index >> 3] & (1 << (index & 7)))

    def set(self, index: int) -> None:
        self._check(index)
        if not self.test(index):
            self._bits[index >> 3] |= 1 << (index & 7)
            self._free -= 1

    def clear(self, index: int) -> None:
        self._check(index)
        if self.test(index):
            self._bits[index >> 3] &= ~(1 << (index & 7)) & 0xFF
            self._free += 1

    @property
    def free_count(self) -> int:
        return self._free

    def find_free(self, goal: int = 0) -> Optional[int]:
        """First free bit at/after ``goal``, wrapping; None when full."""
        if self._free == 0:
            return None
        goal = goal % self.nbits
        for offset in range(self.nbits):
            index = (goal + offset) % self.nbits
            if not self.test(index):
                return index
        return None

    def find_free_run(
        self, count: int, align: int = 1, goal: int = 0
    ) -> Optional[int]:
        """First aligned run of ``count`` free bits at/after ``goal``."""
        if count <= 0 or align <= 0:
            raise ValueError("count and align must be positive")
        if self._free < count:
            return None
        start = (goal // align) * align
        positions = list(range(start, self.nbits - count + 1, align))
        positions += list(range(0, min(start, self.nbits - count + 1), align))
        for index in positions:
            if all(not self.test(index + k) for k in range(count)):
                return index
        return None

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
        if self._free < count:
            return None
        nblocks = self.nbits // frags_per_block
        start_block = (goal // frags_per_block) % max(nblocks, 1)
        fresh: Optional[int] = None
        for offset in range(nblocks):
            block = (start_block + offset) % nblocks
            base = block * frags_per_block
            used = sum(
                1 for k in range(frags_per_block) if self.test(base + k)
            )
            run = self._run_in_block(base, frags_per_block, count)
            if run is None:
                continue
            if used > 0:
                return run  # partially-used block: best choice
            if fresh is None:
                fresh = run
        return fresh

    def _run_in_block(
        self, base: int, frags_per_block: int, count: int
    ) -> Optional[int]:
        for start in range(frags_per_block - count + 1):
            if all(not self.test(base + start + k) for k in range(count)):
                return base + start
        return None

    def pack(self) -> bytes:
        return bytes(self._bits)
