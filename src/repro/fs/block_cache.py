"""The block cache core both file-system families share (Section 4.4's
one 6.1 MB file buffer cache).

UFS keys it by device address (:class:`repro.ufs.buffer_cache.BufferCache`),
the log family by ``(inode, file block)`` because log addresses move
(:class:`repro.lfs.nvram.FileCache`).  The core is the LRU order over any
hashable key, the dirty count, the hit/miss counters, the parse a caller
leaves on an entry, and the two ways an entry leaves unwritten.  Which
entry leaves a full cache decides a later disk read and is each layer's
own, so the core never evicts and never asks which layer it serves; a
layer that indexes its dirty entries overrides the two ``_note`` hooks.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Hashable, Iterator


class _Entry:
    __slots__ = ("data", "dirty", "parsed")

    def __init__(self, data, dirty: bool) -> None:
        self.data = data
        self.dirty = dirty
        #: Whatever :meth:`BlockCache.keep_parsed` left here.
        self.parsed = None


class BlockCache:
    """An LRU order of cached blocks, coldest first, with dirty tracking."""

    def __init__(self, capacity_bytes: int, block_size: int) -> None:
        if capacity_bytes < block_size:
            raise ValueError("cache must hold at least one block")
        self.block_size = block_size
        self.capacity_blocks = capacity_bytes // block_size
        self._entries: "OrderedDict[Hashable, _Entry]" = OrderedDict()
        #: How many entries are dirty (kept by the two ``_note`` hooks).
        self._dirty = 0
        self.hits = 0
        self.misses = 0

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._entries)

    @property
    def dirty_blocks(self) -> int:
        return self._dirty

    # -- the dirty count, kept in step with ``entry.dirty`` ---------------

    def _note_dirty(self, key: Hashable) -> None:
        """``key``'s entry became dirty."""
        self._dirty += 1

    def _note_not_dirty(self, key: Hashable) -> None:
        """``key``'s entry was dirty and is no longer (cleaned or gone)."""
        self._dirty -= 1

    def _set_dirty(self, key: Hashable, entry: _Entry, dirty: bool) -> None:
        if entry.dirty != dirty:
            entry.dirty = dirty
            if dirty:
                self._note_dirty(key)
            else:
                self._note_not_dirty(key)

    def _add(self, key: Hashable, data, dirty: bool) -> _Entry:
        """Enter a block that is not resident, most recent in the order
        (the layer made room first, or chose not to)."""
        entry = self._entries[key] = _Entry(data, dirty)
        if dirty:
            self._note_dirty(key)
        return entry

    # ------------------------------------------------------------------

    def parsed(self, key: Hashable):
        """What :meth:`keep_parsed` left on ``key``'s entry, else None."""
        entry = self._entries.get(key)
        return None if entry is None else entry.parsed

    def keep_parsed(self, key: Hashable, parsed) -> None:
        """Let ``parsed`` (a caller's decoded view of the block) ride on
        ``key``'s entry until the entry leaves the cache; the caller
        checks it against the bytes it reads before trusting it.  A
        block that is not resident keeps nothing."""
        entry = self._entries.get(key)
        if entry is not None:
            entry.parsed = parsed

    def forget(self, key: Hashable) -> None:
        """Drop ``key``'s entry unwritten, dirty or not (the block was
        freed)."""
        entry = self._entries.pop(key, None)
        if entry is not None and entry.dirty:
            self._note_not_dirty(key)

    def drop_clean(self) -> None:
        """Discard clean entries (the benchmark 'cache flush')."""
        for key in [k for k, e in self._entries.items() if not e.dirty]:
            del self._entries[key]
