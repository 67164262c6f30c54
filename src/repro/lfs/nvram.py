"""The file buffer cache, optionally non-volatile.

Section 4.4: "MinixUFS employs a file buffer cache of 6.1 MB.  Unless
'sync' operations are issued, all writes are asynchronous.  In some of the
experiments we assume this buffer to be made of NVRAM so that the LFS
configuration can have a similar reliability guarantee as that of the
synchronous systems."

The cache holds whole file system blocks keyed by (inode, file block index)
-- note this is *above* the log, unlike the UFS buffer cache which sits on
device addresses, because log addresses change on every write.  Dirty
blocks are what the segment writer drains on flush.

The shared core's LRU order (:class:`repro.fs.block_cache.BlockCache`)
holds everything, clean and dirty, and stays the only order there is:
an entry that :meth:`FileCache.mark_clean` cleans keeps its place, and
the eviction victims are exactly the first clean entries in that order
(which block goes decides a later disk read).
Beside it the cache *counts* what it used to scan for: how many entries
are dirty, and which keys of each inode are dirty, oldest first.  The
scan-everything cache this replaced is ``tests/lfs/reference_filecache.py``,
the differential oracle (DESIGN.md section 17).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from repro.fs.block_cache import BlockCache, _Entry

#: Cache key: (inode number, file block index or indirect code).
Key = Tuple[int, int]


class FileCache(BlockCache):
    """LRU cache of file blocks with dirty tracking.

    When ``nvram=True`` the cache contents survive a :meth:`crash` (the
    paper's NVRAM assumption); otherwise a crash discards everything.
    """

    def __init__(
        self,
        capacity_bytes: int = int(6.1 * 2**20),
        block_size: int = 4096,
        nvram: bool = False,
    ) -> None:
        super().__init__(capacity_bytes, block_size)
        self.nvram = nvram
        #: inum -> that inode's dirty keys, in the order ``_entries``
        #: holds them (every reordering there is a move-to-end, mirrored
        #: here by :meth:`_touch`).
        self._dirty_keys: Dict[int, "OrderedDict[Key, None]"] = {}

    def would_overflow(self, new_blocks: int) -> bool:
        """Would inserting ``new_blocks`` dirty blocks exceed capacity even
        after evicting every clean block?"""
        return self._dirty + new_blocks > self.capacity_blocks

    # -- the per-inode dirty index, kept in step with ``entry.dirty`` ----

    def _touch(self, key: Key, entry: _Entry) -> None:
        """``key`` was used: most recent in every order it is in."""
        self._entries.move_to_end(key)
        if entry.dirty:
            self._dirty_keys[key[0]].move_to_end(key)

    def _note_dirty(self, key: Key) -> None:
        self._dirty += 1
        keys = self._dirty_keys.get(key[0])
        if keys is None:
            keys = self._dirty_keys[key[0]] = OrderedDict()
        keys[key] = None

    def _note_not_dirty(self, key: Key) -> None:
        self._dirty -= 1
        keys = self._dirty_keys[key[0]]
        del keys[key]
        if not keys:
            del self._dirty_keys[key[0]]

    # ------------------------------------------------------------------

    def get(self, key: Key) -> Optional[bytes]:
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self.hits += 1
        self._touch(key, entry)
        return entry.data

    def put_clean(self, key: Key, data: bytes) -> None:
        """Install a block read from disk (never clobbers a dirty copy)."""
        entry = self._entries.get(key)
        if entry is not None:
            if not entry.dirty:
                entry.data = data
            self._touch(key, entry)
            return
        self._evict_clean_for(1)
        if len(self._entries) < self.capacity_blocks:
            self._add(key, data, dirty=False)

    def put_dirty(self, key: Key, data: bytes) -> None:
        """Install a written block; caller must have ensured capacity."""
        entry = self._entries.get(key)
        if entry is not None:
            entry.data = data
            self._set_dirty(key, entry, True)
            self._touch(key, entry)
            return
        self._evict_clean_for(1)
        # Capacity is enforced by callers via would_overflow(); a dirty
        # insert is always honoured (transient overflow mirrors the real
        # cache's wired metadata pages).
        self._add(key, data, dirty=True)

    def mark_clean(self, key: Key) -> None:
        entry = self._entries.get(key)
        if entry is not None:
            self._set_dirty(key, entry, False)

    def forget_inode(self, inum: int) -> None:
        for key in [k for k in self._entries if k[0] == inum]:
            del self._entries[key]
        self._dirty -= len(self._dirty_keys.pop(inum, ()))

    def dirty_items(self) -> List[Tuple[Key, bytes]]:
        """Dirty blocks, oldest first (stable flush order)."""
        return [
            (key, entry.data)
            for key, entry in self._entries.items()
            if entry.dirty
        ]

    def dirty_items_for(self, inum: int) -> List[Tuple[Key, bytes]]:
        return [
            (key, self._entries[key].data)
            for key in self._dirty_keys.get(inum, ())
        ]

    def crash(self) -> None:
        """Power loss: NVRAM keeps everything, DRAM keeps nothing."""
        if not self.nvram:
            self._entries.clear()
            self._dirty_keys.clear()
            self._dirty = 0

    def _evict_clean_for(self, needed: int) -> None:
        """Evict clean LRU entries until ``needed`` slots exist (best
        effort; dirty entries are never evicted here).

        The victims are the first clean entries in LRU order.  The walk
        from the cold end stops at the last victim, and the dirty count
        says when there is no (further) clean entry to walk to.
        """
        entries = self._entries
        wanted = min(
            len(entries) + needed - self.capacity_blocks,
            len(entries) - self._dirty,
        )
        if wanted <= 0:
            return
        victims: List[Key] = []
        for key, entry in entries.items():
            if not entry.dirty:
                victims.append(key)
                if len(victims) == wanted:
                    break
        for key in victims:
            del entries[key]
