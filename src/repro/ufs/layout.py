"""On-disk layout: superblock and cylinder groups.

Layout (in 4 KB device blocks)::

    block 0                 superblock
    block 1 ..              cylinder group 0
      +0                    bitmap block (inode bitmap ++ fragment bitmap)
      +1 .. +itable         inode table
      +itable+1 .. end      data blocks
    ...                     cylinder group 1, ...

Groups are sized to match the simulated disk's cylinders when the caller
passes ``blocks_per_group`` accordingly (the harness does), giving the
allocator the physical locality FFS's cylinder groups exist for.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import List

from repro.fs.inode import INODE_SIZE

_SB = struct.Struct("<8sIIIIIIII")
_SB_MAGIC = b"REPROUFS"

#: Fragment size in bytes (the paper's UFS config: 4 KB / 1 KB).
FRAG_SIZE = 1024


@dataclass
class Superblock:
    """Mountable file system description, stored in device block 0."""

    block_size: int
    frag_size: int
    total_blocks: int
    blocks_per_group: int
    inodes_per_group: int
    num_groups: int
    root_inum: int
    generation: int = 0

    def pack(self) -> bytes:
        raw = _SB.pack(
            _SB_MAGIC,
            self.block_size,
            self.frag_size,
            self.total_blocks,
            self.blocks_per_group,
            self.inodes_per_group,
            self.num_groups,
            self.root_inum,
            self.generation,
        )
        return raw + bytes(self.block_size - len(raw))

    @classmethod
    def unpack(cls, raw: bytes) -> "Superblock":
        magic, bs, fs, total, bpg, ipg, ngroups, root, gen = _SB.unpack(
            raw[: _SB.size]
        )
        if magic != _SB_MAGIC:
            raise ValueError("not a UFS superblock")
        return cls(bs, fs, total, bpg, ipg, ngroups, root, gen)


class UFSLayout:
    """Derived layout facts for one file system instance."""

    def __init__(self, sb: Superblock) -> None:
        self.sb = sb
        self.block_size = sb.block_size
        self.frag_size = sb.frag_size
        self.frags_per_block = sb.block_size // sb.frag_size
        self.inodes_per_block = sb.block_size // INODE_SIZE
        self.itable_blocks = -(-sb.inodes_per_group // self.inodes_per_block)
        self.meta_blocks_per_group = 1 + self.itable_blocks
        if sb.blocks_per_group <= self.meta_blocks_per_group:
            raise ValueError("groups too small to hold their metadata")
        self.data_blocks_per_group = (
            sb.blocks_per_group - self.meta_blocks_per_group
        )
        self.total_inodes = sb.num_groups * sb.inodes_per_group

    @classmethod
    def design(
        cls,
        total_blocks: int,
        block_size: int = 4096,
        blocks_per_group: int = 512,
        inodes_per_group: int = 0,
    ) -> "UFSLayout":
        """Compute a layout for a device (``mkfs``'s sizing step)."""
        if total_blocks < 8:
            raise ValueError("device too small")
        blocks_per_group = min(blocks_per_group, total_blocks - 1)
        num_groups = (total_blocks - 1) // blocks_per_group
        if num_groups < 1:
            raise ValueError("device cannot hold one cylinder group")
        if inodes_per_group <= 0:
            # One inode per two data blocks, rounded to whole table blocks,
            # at least one table block.
            per_block = block_size // INODE_SIZE
            inodes_per_group = max(
                per_block, (blocks_per_group // 2 // per_block) * per_block
            )
        sb = Superblock(
            block_size=block_size,
            frag_size=FRAG_SIZE,
            total_blocks=total_blocks,
            blocks_per_group=blocks_per_group,
            inodes_per_group=inodes_per_group,
            num_groups=num_groups,
            root_inum=1,
        )
        return cls(sb)

    # -- addressing -------------------------------------------------------

    def group_start(self, group: int) -> int:
        self._check_group(group)
        return 1 + group * self.sb.blocks_per_group

    def bitmap_block(self, group: int) -> int:
        return self.group_start(group)

    def itable_start(self, group: int) -> int:
        return self.group_start(group) + 1

    def data_start(self, group: int) -> int:
        return self.group_start(group) + self.meta_blocks_per_group

    def group_end(self, group: int) -> int:
        return self.group_start(group) + self.sb.blocks_per_group

    def group_of_block(self, lba: int) -> int:
        if lba < 1:
            raise ValueError("block 0 is the superblock")
        group = (lba - 1) // self.sb.blocks_per_group
        self._check_group(group)
        return group

    def group_of_inum(self, inum: int) -> int:
        self._check_inum(inum)
        return inum // self.sb.inodes_per_group

    def inode_position(self, inum: int):
        """(device block, byte offset) of an inode in its table."""
        self._check_inum(inum)
        group = inum // self.sb.inodes_per_group
        index = inum % self.sb.inodes_per_group
        block = self.itable_start(group) + index // self.inodes_per_block
        offset = (index % self.inodes_per_block) * INODE_SIZE
        return block, offset

    def frag_to_block(self, frag: int):
        """Absolute fragment -> (device block, byte offset)."""
        return frag // self.frags_per_block, (
            frag % self.frags_per_block
        ) * self.frag_size

    def block_to_frag(self, lba: int) -> int:
        return lba * self.frags_per_block

    def _check_group(self, group: int) -> None:
        if not 0 <= group < self.sb.num_groups:
            raise ValueError(f"group {group} out of range")

    def _check_inum(self, inum: int) -> None:
        if not 0 < inum < self.total_inodes:
            raise ValueError(f"inode {inum} out of range")

    def bitmap_layout(self) -> List[int]:
        """Byte offsets [inode_bitmap, frag_bitmap, end] inside the bitmap
        block."""
        inode_bytes = (self.sb.inodes_per_group + 7) // 8
        frag_bits = self.sb.blocks_per_group * self.frags_per_block
        frag_bytes = (frag_bits + 7) // 8
        if inode_bytes + frag_bytes > self.block_size:
            raise ValueError("bitmaps do not fit in one block")
        return [0, inode_bytes, inode_bytes + frag_bytes]
