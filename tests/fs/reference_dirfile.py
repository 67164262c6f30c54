"""The parse-and-repack ``DirectoryBlock`` that ``repro.fs.dirfile`` replaced.

Kept verbatim as the differential oracle (``test_dirfile_differential.py``):
``pack`` serialises the entry dict from scratch, ``unpack`` parses every
entry every time and performs no validation, ``used_bytes`` re-encodes
every name.  The production class keeps a packed image beside the dict
and must return these bytes for every add / remove / re-add sequence.
"""

from __future__ import annotations

import struct
from typing import Dict, List, Optional

_ENTRY_HEADER = struct.Struct("<IH")


class ReferenceDirectoryBlock:
    """Parsed contents of one directory block (dict only, no image)."""

    def __init__(self, block_size: int, entries: Optional[Dict[str, int]] = None):
        self.block_size = block_size
        self.entries: Dict[str, int] = dict(entries or {})

    # -- serialisation ----------------------------------------------------

    def pack(self) -> bytes:
        pieces: List[bytes] = []
        used = 0
        for name, inum in self.entries.items():
            encoded = name.encode()
            piece = _ENTRY_HEADER.pack(inum, len(encoded)) + encoded
            used += len(piece)
            pieces.append(piece)
        if used > self.block_size:
            raise ValueError("directory entries exceed one block")
        pieces.append(bytes(self.block_size - used))
        return b"".join(pieces)

    @classmethod
    def unpack(cls, raw: bytes) -> "ReferenceDirectoryBlock":
        block = cls(len(raw))
        offset = 0
        while offset + _ENTRY_HEADER.size <= len(raw):
            inum, name_len = _ENTRY_HEADER.unpack(
                raw[offset : offset + _ENTRY_HEADER.size]
            )
            if name_len == 0:
                break  # padding reached
            offset += _ENTRY_HEADER.size
            name = raw[offset : offset + name_len].decode()
            offset += name_len
            block.entries[name] = inum
        return block

    # -- editing ----------------------------------------------------------

    def space_for(self, name: str) -> bool:
        needed = _ENTRY_HEADER.size + len(name.encode())
        return self.used_bytes() + needed <= self.block_size

    def used_bytes(self) -> int:
        return sum(
            _ENTRY_HEADER.size + len(n.encode()) for n in self.entries
        )

    def add(self, name: str, inum: int) -> None:
        if not self.space_for(name):
            raise ValueError("directory block full")
        self.entries[name] = inum

    def remove(self, name: str) -> int:
        return self.entries.pop(name)

    def lookup(self, name: str) -> Optional[int]:
        return self.entries.get(name)

    def __len__(self) -> int:
        return len(self.entries)
