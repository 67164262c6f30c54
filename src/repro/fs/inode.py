"""The on-disk inode, shared by the UFS, LFS, and VLFS implementations.

Classic FFS shape: 12 direct block pointers, one single-indirect and one
double-indirect pointer.  With 4 KB blocks and 4-byte pointers an indirect
block holds 1024 pointers, so files up to 12 + 1024 + 1024**2 blocks
(~4 GB) are addressable -- far beyond the 24 MB simulated disks.

Pointer values are *block addresses in the owning file system's space*:
logical device blocks for UFS, log addresses for LFS.  The value 0 is
"no block" (a hole); real FFS does the same, which is why block 0 is never
a file data block in any of our layouts.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import List

#: Number of direct block pointers.
NUM_DIRECT = 12

#: Serialized inode size in bytes; 32 inodes per 4 KB block.
INODE_SIZE = 128

_FIXED = struct.Struct("<IIQQddII")  # type,nlink,size,frag,atime,mtime,gen,pad
_PTRS = struct.Struct(f"<{NUM_DIRECT + 2}I")


class FileType:
    FREE = 0
    REGULAR = 1
    DIRECTORY = 2


@dataclass
class Inode:
    """In-memory inode; (de)serialises to :data:`INODE_SIZE` bytes."""

    itype: int = FileType.FREE
    nlink: int = 0
    size: int = 0
    #: UFS only: address (in fragments) of the tail-fragment run, and its
    #: length in fragments, packed as (addr << 8) | count.  0 = none.
    frag_info: int = 0
    atime: float = 0.0
    mtime: float = 0.0
    generation: int = 0
    direct: List[int] = field(default_factory=lambda: [0] * NUM_DIRECT)
    indirect: int = 0
    double_indirect: int = 0

    @property
    def is_dir(self) -> bool:
        return self.itype == FileType.DIRECTORY

    @property
    def is_free(self) -> bool:
        return self.itype == FileType.FREE

    def pack(self) -> bytes:
        fixed = _FIXED.pack(
            self.itype,
            self.nlink,
            self.size,
            self.frag_info,
            self.atime,
            self.mtime,
            self.generation,
            0,
        )
        ptrs = _PTRS.pack(*self.direct, self.indirect, self.double_indirect)
        raw = fixed + ptrs
        return raw + bytes(INODE_SIZE - len(raw))

    @classmethod
    def unpack(cls, raw: bytes) -> "Inode":
        if len(raw) < INODE_SIZE:
            raise ValueError(f"inode requires {INODE_SIZE} bytes")
        itype, nlink, size, frag, atime, mtime, gen, _pad = _FIXED.unpack(
            raw[: _FIXED.size]
        )
        values = _PTRS.unpack(
            raw[_FIXED.size : _FIXED.size + _PTRS.size]
        )
        return cls(
            itype=itype,
            nlink=nlink,
            size=size,
            frag_info=frag,
            atime=atime,
            mtime=mtime,
            generation=gen,
            direct=list(values[:NUM_DIRECT]),
            indirect=values[NUM_DIRECT],
            double_indirect=values[NUM_DIRECT + 1],
        )

    # -- tail fragment helpers (UFS) -------------------------------------

    def set_tail_frags(self, frag_addr: int, frag_count: int) -> None:
        """Record the tail-fragment run (UFS small-file tails)."""
        if frag_count == 0:
            self.frag_info = 0
        else:
            self.frag_info = (frag_addr << 8) | (frag_count & 0xFF)

    def tail_frags(self):
        """Return (frag_addr, frag_count); count 0 when no tail run."""
        if self.frag_info == 0:
            return 0, 0
        return self.frag_info >> 8, self.frag_info & 0xFF

    def reset(self) -> None:
        """Return the inode to its freshly-freed state."""
        self.itype = FileType.FREE
        self.nlink = 0
        self.size = 0
        self.frag_info = 0
        self.direct = [0] * NUM_DIRECT
        self.indirect = 0
        self.double_indirect = 0


def pointers_per_block(block_size: int) -> int:
    """How many 4-byte block pointers fit in one indirect block."""
    return block_size // 4


def max_file_blocks(block_size: int) -> int:
    """Largest file (in blocks) the inode geometry can address."""
    ppb = pointers_per_block(block_size)
    return NUM_DIRECT + ppb + ppb * ppb


def check_file_end(end: int, block_size: int) -> None:
    """Refuse a file end past the last byte the inode can address."""
    limit = max_file_blocks(block_size) * block_size
    if end > limit:
        raise ValueError(f"file end {end} passes the inode's limit of {limit} bytes")
