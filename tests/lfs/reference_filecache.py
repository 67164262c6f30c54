"""The scan-everything ``FileCache`` that ``repro.lfs.nvram`` replaced.

Kept verbatim as the differential oracle (``test_filecache_differential.py``):
``dirty_blocks`` counts the whole cache, ``dirty_items_for`` filters it,
and ``_evict_clean_for`` lists every clean key before deleting the first
few -- so "the victims are the first clean entries in LRU order, and an
entry cleaned in place keeps its position" is spelled out by the code.
The production class counts and indexes instead and must pick the same
victims in the same order.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterator, List, Optional, Tuple

#: Cache key: (inode number, file block index or indirect code).
Key = Tuple[int, int]


class _Entry:
    __slots__ = ("data", "dirty")

    def __init__(self, data: bytes, dirty: bool) -> None:
        self.data = data
        self.dirty = dirty


class ReferenceFileCache:
    """LRU cache of file blocks with dirty tracking (every answer a scan).

    When ``nvram=True`` the cache contents survive a :meth:`crash` (the
    paper's NVRAM assumption); otherwise a crash discards everything.
    """

    def __init__(
        self,
        capacity_bytes: int = int(6.1 * 2**20),
        block_size: int = 4096,
        nvram: bool = False,
    ) -> None:
        if capacity_bytes < block_size:
            raise ValueError("cache must hold at least one block")
        self.block_size = block_size
        self.capacity_blocks = capacity_bytes // block_size
        self.nvram = nvram
        self._entries: "OrderedDict[Key, _Entry]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------

    def __contains__(self, key: Key) -> bool:
        return key in self._entries

    @property
    def dirty_blocks(self) -> int:
        return sum(1 for e in self._entries.values() if e.dirty)

    @property
    def total_blocks(self) -> int:
        return len(self._entries)

    @property
    def full(self) -> bool:
        return len(self._entries) >= self.capacity_blocks

    def would_overflow(self, new_blocks: int) -> bool:
        """Would inserting ``new_blocks`` dirty blocks exceed capacity even
        after evicting every clean block?"""
        return self.dirty_blocks + new_blocks > self.capacity_blocks

    # ------------------------------------------------------------------

    def get(self, key: Key) -> Optional[bytes]:
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self.hits += 1
        self._entries.move_to_end(key)
        return entry.data

    def put_clean(self, key: Key, data: bytes) -> None:
        """Install a block read from disk (never clobbers a dirty copy)."""
        entry = self._entries.get(key)
        if entry is not None:
            if not entry.dirty:
                entry.data = data
            self._entries.move_to_end(key)
            return
        self._evict_clean_for(1)
        if len(self._entries) < self.capacity_blocks:
            self._entries[key] = _Entry(data, dirty=False)

    def put_dirty(self, key: Key, data: bytes) -> None:
        """Install a written block; caller must have ensured capacity."""
        entry = self._entries.get(key)
        if entry is not None:
            entry.data = data
            entry.dirty = True
            self._entries.move_to_end(key)
            return
        self._evict_clean_for(1)
        # Capacity is enforced by callers via would_overflow(); a dirty
        # insert is always honoured (transient overflow mirrors the real
        # cache's wired metadata pages).
        self._entries[key] = _Entry(data, dirty=True)

    def mark_clean(self, key: Key) -> None:
        entry = self._entries.get(key)
        if entry is not None:
            entry.dirty = False

    def forget(self, key: Key) -> None:
        self._entries.pop(key, None)

    def forget_inode(self, inum: int) -> None:
        for key in [k for k in self._entries if k[0] == inum]:
            del self._entries[key]

    def dirty_items(self) -> List[Tuple[Key, bytes]]:
        """Dirty blocks, oldest first (stable flush order)."""
        return [
            (key, entry.data)
            for key, entry in self._entries.items()
            if entry.dirty
        ]

    def dirty_items_for(self, inum: int) -> List[Tuple[Key, bytes]]:
        return [
            (key, entry.data)
            for key, entry in self._entries.items()
            if entry.dirty and key[0] == inum
        ]

    def drop_clean(self) -> None:
        for key in [k for k, e in self._entries.items() if not e.dirty]:
            del self._entries[key]

    def crash(self) -> None:
        """Power loss: NVRAM keeps everything, DRAM keeps nothing."""
        if not self.nvram:
            self._entries.clear()

    def _evict_clean_for(self, needed: int) -> None:
        """Evict clean LRU entries until ``needed`` slots exist (best
        effort; dirty entries are never evicted here)."""
        if len(self._entries) + needed <= self.capacity_blocks:
            return
        for key in [k for k, e in self._entries.items() if not e.dirty]:
            del self._entries[key]
            if len(self._entries) + needed <= self.capacity_blocks:
                return

    def __iter__(self) -> Iterator[Key]:
        return iter(self._entries)
