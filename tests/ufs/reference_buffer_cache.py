"""The ``BufferCache`` that ``repro.ufs.buffer_cache`` replaced.

Kept verbatim (its class renamed) as the differential oracle
(``test_buffer_cache_differential.py``): its own ``_Entry``, dirty
counter and hit/miss counters, before the production class became a
layer over the shared ``repro.fs.block_cache.BlockCache``.  The two must
keep the same LRU order, so every write-back eviction hits the same
block at the same moment, and must issue the same device calls.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Tuple

from repro.blockdev.interface import BlockDevice
from repro.sim.stats import Breakdown


class _Entry:
    __slots__ = ("data", "dirty", "parsed")

    def __init__(self, data: bytearray, dirty: bool) -> None:
        self.data = data
        self.dirty = dirty
        #: Whatever :meth:`BufferCache.keep_parsed` left here.
        self.parsed = None


class ReferenceBufferCache:
    """LRU block cache over a :class:`BlockDevice`."""

    def __init__(self, device: BlockDevice, capacity_bytes: int) -> None:
        if capacity_bytes < device.block_size:
            raise ValueError("cache must hold at least one block")
        self.device = device
        self.block_size = device.block_size
        self.capacity_blocks = capacity_bytes // device.block_size
        self._entries: "OrderedDict[int, _Entry]" = OrderedDict()
        #: How many entries are dirty (kept by :meth:`_set_dirty`).
        self._dirty = 0
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------

    def __contains__(self, lba: int) -> bool:
        return lba in self._entries

    def is_dirty(self, lba: int) -> bool:
        entry = self._entries.get(lba)
        return entry.dirty if entry else False

    @property
    def dirty_count(self) -> int:
        return self._dirty

    def _set_dirty(self, entry: _Entry, dirty: bool) -> None:
        if entry.dirty != dirty:
            entry.dirty = dirty
            self._dirty += 1 if dirty else -1

    def parsed(self, lba: int):
        """What :meth:`keep_parsed` left on ``lba``'s entry, else None."""
        entry = self._entries.get(lba)
        return None if entry is None else entry.parsed

    def keep_parsed(self, lba: int, parsed) -> None:
        """Let ``parsed`` (a caller's decoded view of the block) ride on
        ``lba``'s entry until the entry leaves the cache; the caller
        checks it against the bytes it reads before trusting it.  A
        block that is not resident keeps nothing."""
        entry = self._entries.get(lba)
        if entry is not None:
            entry.parsed = parsed

    # ------------------------------------------------------------------

    def read(self, lba: int) -> Tuple[bytes, Breakdown]:
        """Read one block through the cache."""
        breakdown = Breakdown()
        entry = self._entries.get(lba)
        if entry is not None:
            self._entries.move_to_end(lba)
            self.hits += 1
            return bytes(entry.data), breakdown
        self.misses += 1
        data, cost = self.device.read_block(lba)
        breakdown.add(cost)
        self._insert(lba, bytearray(data), dirty=False, breakdown=breakdown)
        return data, breakdown

    def populate_run(self, lba: int, count: int) -> Breakdown:
        """Prefetch ``count`` contiguous blocks in one device command."""
        breakdown = Breakdown()
        data, cost = self.device.read_blocks(lba, count)
        breakdown.add(cost)
        for i in range(count):
            if lba + i in self._entries:
                continue  # don't clobber (possibly dirty) cached copies
            chunk = bytearray(
                data[i * self.block_size : (i + 1) * self.block_size]
            )
            self._insert(lba + i, chunk, dirty=False, breakdown=breakdown)
        return breakdown

    def write(self, lba: int, data: bytes, sync: bool) -> Breakdown:
        """Write one full block; synchronous writes reach the device now."""
        if len(data) != self.block_size:
            raise ValueError("write() takes exactly one block")
        breakdown = Breakdown()
        if sync:
            breakdown.add(self.device.write_block(lba, data))
        entry = self._entries.get(lba)
        if entry is not None:
            entry.data[:] = data
            self._set_dirty(entry, not sync)
            self._entries.move_to_end(lba)
        else:
            self._insert(lba, bytearray(data), dirty=not sync,
                         breakdown=breakdown)
        return breakdown

    def write_partial(
        self,
        lba: int,
        offset: int,
        data: bytes,
        sync: bool,
        fresh: bool = False,
    ) -> Breakdown:
        """Write a byte range within one block.

        Synchronous partial writes use the device's partial-write path
        (sector-granularity on the regular disk, read-modify-write on the
        VLD).  Asynchronous ones merge into the cached copy; ``fresh``
        skips the read-before-merge for newly allocated blocks.
        """
        if offset + len(data) > self.block_size:
            raise ValueError("partial write exceeds the block")
        breakdown = Breakdown()
        entry = self._entries.get(lba)
        if entry is None:
            if fresh:
                base = bytearray(self.block_size)
            else:
                raw, cost = self.device.read_block(lba)
                breakdown.add(cost)
                base = bytearray(raw)
            entry = self._insert(lba, base, dirty=False, breakdown=breakdown)
        entry.data[offset : offset + len(data)] = data
        self._entries.move_to_end(lba)
        if sync:
            breakdown.add(self.device.write_partial(lba, offset, data))
        else:
            self._set_dirty(entry, True)
        return breakdown

    # ------------------------------------------------------------------

    def flush_block(self, lba: int) -> Breakdown:
        breakdown = Breakdown()
        entry = self._entries.get(lba)
        if entry is not None and entry.dirty:
            breakdown.add(self.device.write_block(lba, bytes(entry.data)))
            self._set_dirty(entry, False)
        return breakdown

    def flush(self) -> Breakdown:
        """Write back all dirty blocks, coalescing contiguous runs."""
        breakdown = Breakdown()
        dirty = sorted(
            lba for lba, e in self._entries.items() if e.dirty
        )
        i = 0
        while i < len(dirty):
            j = i
            while j + 1 < len(dirty) and dirty[j + 1] == dirty[j] + 1:
                j += 1
            run = dirty[i : j + 1]
            payload = b"".join(
                bytes(self._entries[lba].data) for lba in run
            )
            breakdown.add(
                self.device.write_blocks(run[0], len(run), payload)
            )
            for lba in run:
                self._set_dirty(self._entries[lba], False)
            i = j + 1
        return breakdown

    def drop_clean(self) -> None:
        """Discard clean entries (the benchmark 'cache flush')."""
        for lba in [l for l, e in self._entries.items() if not e.dirty]:
            del self._entries[lba]

    def invalidate(self, lba: int) -> None:
        """Forget a block entirely (it was freed)."""
        entry = self._entries.pop(lba, None)
        if entry is not None and entry.dirty:
            self._dirty -= 1

    # ------------------------------------------------------------------

    def _insert(
        self, lba: int, data: bytearray, dirty: bool, breakdown: Breakdown
    ) -> _Entry:
        while len(self._entries) >= self.capacity_blocks:
            victim_lba, victim = self._entries.popitem(last=False)
            if victim.dirty:
                self._dirty -= 1
                breakdown.add(
                    self.device.write_block(victim_lba, bytes(victim.data))
                )
        entry = _Entry(data, dirty)
        self._dirty += dirty
        self._entries[lba] = entry
        return entry
