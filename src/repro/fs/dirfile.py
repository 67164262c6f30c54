"""Directory file contents: the variable-length entry format.

A directory is an ordinary file whose blocks hold a sequence of entries::

    <inum:u32> <name_len:u16> <name bytes> ... padding ...

Entries never cross block boundaries (as in FFS); deletion compacts the
block in place.  This module only handles one block's worth of entries --
file systems iterate their directory blocks through their normal data path,
so directory reads and writes cost exactly what file I/O costs.

A :class:`DirectoryBlock` keeps its packed image beside its entries:
``add`` appends the packed entry, ``remove`` splices it out, and
:meth:`~DirectoryBlock.pack` hands the image back, byte for byte what
packing the entries from scratch gives (``tests/fs/reference_dirfile.py``
is that from-scratch implementation, and the differential oracle).  The
image is also what lets a parse be reused: :meth:`DirectoryBlock.cached`
leaves a parse on the cache entry of the block it was made from and
takes it back only while its image *equals the bytes the data path just
returned*, so the host parses a directory block once per content rather
than once per lookup, and a stale parse cannot be observed -- there is
nothing to invalidate (DESIGN.md section 17).
"""

from __future__ import annotations

import struct
from typing import Dict, Optional

from repro.fs.api import CorruptDirectory

_ENTRY_HEADER = struct.Struct("<IH")


class DirectoryBlock:
    """Parsed contents of one directory block."""

    def __init__(self, block_size: int, entries: Optional[Dict[str, int]] = None):
        self.block_size = block_size
        #: name -> inum, in block order.  Read it freely; edit through
        #: :meth:`add` / :meth:`remove`, which keep the image in step.
        self.entries: Dict[str, int] = {}
        #: name -> bytes its packed entry occupies, in block order.
        self._sizes: Dict[str, int] = {}
        #: What :meth:`pack` returns (longer than a block only while the
        #: constructor was handed more entries than fit).
        self._image = bytearray(block_size)
        self._used = 0
        for name, inum in (entries or {}).items():
            self._append(name, inum, name.encode())

    # -- serialisation ----------------------------------------------------

    def pack(self) -> bytes:
        if self._used > self.block_size:
            raise ValueError("directory entries exceed one block")
        return bytes(self._image)

    @classmethod
    def unpack(cls, raw: bytes) -> "DirectoryBlock":
        """Parse one block; :class:`CorruptDirectory` for an entry that
        overruns the block or whose name no path could have produced."""
        size = len(raw)
        block = cls(size)
        entries, sizes = block.entries, block._sizes
        header = _ENTRY_HEADER.size
        offset = count = 0
        while offset + header <= size:
            inum, name_len = _ENTRY_HEADER.unpack_from(raw, offset)
            if name_len == 0:
                break  # padding reached
            end = offset + header + name_len
            if end > size:
                raise CorruptDirectory(
                    f"entry at byte {offset} overruns the block"
                )
            try:
                name = raw[offset + header : end].decode()
            except UnicodeDecodeError as exc:
                raise CorruptDirectory(
                    f"entry at byte {offset}: name is not UTF-8"
                ) from exc
            if "/" in name or "\x00" in name:
                raise CorruptDirectory(
                    f"entry at byte {offset}: invalid character in {name!r}"
                )
            entries[name] = inum
            sizes[name] = end - offset
            offset = end
            count += 1
        if len(entries) != count:
            # A repeated name: the image is what packing the dict gives.
            return cls(size, entries)
        block._image[:offset] = raw[:offset]
        block._used = offset
        return block

    @classmethod
    def cached(cls, cache, key, raw: bytes) -> "DirectoryBlock":
        """:meth:`unpack` of ``raw``, parsed once per content.

        ``raw`` is what the data path just returned for the block cached
        under ``key``.  The parse rides on that cache entry (``cache``
        is a :class:`~repro.fs.block_cache.BlockCache`: ``parsed`` /
        ``keep_parsed``), so it is bounded by the cache and leaves with
        the entry; it is reused only if its image equals ``raw``.  The
        caller may edit the returned block: the edit moves its image
        too, so it stays valid exactly when the edit is written back.
        """
        held = cache.parsed(key)
        if held is None or held._image != raw:
            held = cls.unpack(raw)
            cache.keep_parsed(key, held)
        return held

    # -- editing ----------------------------------------------------------

    def space_for(self, name: str) -> bool:
        needed = _ENTRY_HEADER.size + len(name.encode())
        return self._used + needed <= self.block_size

    def used_bytes(self) -> int:
        return self._used

    def add(self, name: str, inum: int) -> None:
        encoded = name.encode()
        if self._used + _ENTRY_HEADER.size + len(encoded) > self.block_size:
            raise ValueError("directory block full")
        if name in self.entries:  # re-pointed where it stands
            self.entries[name] = inum
            _ENTRY_HEADER.pack_into(
                self._image, self._offset_of(name), inum, len(encoded)
            )
        else:
            self._append(name, inum, encoded)

    def remove(self, name: str) -> int:
        inum = self.entries.pop(name)
        offset = self._offset_of(name)
        size = self._sizes.pop(name)
        # Close the gap and zero-fill the tail: in-place compaction.
        del self._image[offset : offset + size]
        self._image.extend(bytes(max(0, self.block_size - len(self._image))))
        self._used -= size
        return inum

    def lookup(self, name: str) -> Optional[int]:
        return self.entries.get(name)

    def __len__(self) -> int:
        return len(self.entries)

    def _append(self, name: str, inum: int, encoded: bytes) -> None:
        piece = _ENTRY_HEADER.pack(inum, len(encoded)) + encoded
        end = self._used + len(piece)
        self._image[self._used : end] = piece
        self.entries[name] = inum
        self._sizes[name] = len(piece)
        self._used = end

    def _offset_of(self, name: str) -> int:
        offset = 0
        for other, size in self._sizes.items():
            if other == name:
                return offset
            offset += size
        raise KeyError(name)
