"""Cylinder-group allocation: inodes, blocks, and fragments.

FFS policies, simplified but recognisable:

* a new directory goes to the group with the most free inodes;
* a new file's inode goes to its parent directory's group;
* data blocks go to their inode's group, preferring the block right after
  the previous one (contiguous layout for sequential reads on the regular
  disk);
* fragment runs prefer blocks that already hold fragments.

Bitmaps live in each group's bitmap block and are written back lazily
through the buffer cache (FFS writes bitmaps asynchronously too).
"""

from __future__ import annotations

from typing import List, Tuple

from repro.fs.api import NoSpace
from repro.sim.stats import Breakdown
from repro.ufs.bitmap import Bitmap
from repro.ufs.buffer_cache import BufferCache
from repro.ufs.layout import UFSLayout


class _Group:
    """One cylinder group's in-memory bitmaps."""

    def __init__(self, layout: UFSLayout, index: int) -> None:
        self.index = index
        self.inodes = Bitmap(layout.sb.inodes_per_group)
        frag_bits = layout.sb.blocks_per_group * layout.frags_per_block
        self.frags = Bitmap(frag_bits)


class UFSAllocator:
    """Bitmap-backed allocator over all cylinder groups."""

    def __init__(self, layout: UFSLayout, cache: BufferCache) -> None:
        self.layout = layout
        self.cache = cache
        self.groups: List[_Group] = [
            _Group(layout, g) for g in range(layout.sb.num_groups)
        ]

    # ------------------------------------------------------------------
    # mkfs / mount plumbing
    # ------------------------------------------------------------------

    def initialise(self) -> None:
        """Fresh bitmaps: metadata blocks pre-marked used."""
        meta_frags = (
            self.layout.meta_blocks_per_group * self.layout.frags_per_block
        )
        for group in self.groups:
            group.frags.set_run(0, meta_frags)
        # Inode 0 of group 0 is reserved (invalid inum).
        self.groups[0].inodes.set(0)

    def load(self, breakdown: Breakdown) -> None:
        """Read all bitmap blocks from the device (mount)."""
        offsets = self.layout.bitmap_layout()
        for group in self.groups:
            raw, cost = self.cache.read(self.layout.bitmap_block(group.index))
            breakdown.add(cost)
            group.inodes = Bitmap(
                self.layout.sb.inodes_per_group, raw[offsets[0] : offsets[1]]
            )
            frag_bits = (
                self.layout.sb.blocks_per_group * self.layout.frags_per_block
            )
            group.frags = Bitmap(frag_bits, raw[offsets[1] : offsets[2]])

    def store_group(self, group_index: int, sync: bool = False) -> Breakdown:
        """Write one group's bitmap block (dirty in cache unless sync)."""
        group = self.groups[group_index]
        offsets = self.layout.bitmap_layout()
        raw = bytearray(self.layout.block_size)
        raw[offsets[0] : offsets[1]] = group.inodes.pack()
        raw[offsets[1] : offsets[2]] = group.frags.pack()
        return self.cache.write(
            self.layout.bitmap_block(group_index), bytes(raw), sync
        )

    def store_all(self) -> Breakdown:
        breakdown = Breakdown()
        for group in self.groups:
            breakdown.add(self.store_group(group.index))
        return breakdown

    # ------------------------------------------------------------------
    # Inodes
    # ------------------------------------------------------------------

    def alloc_inode(self, parent_inum: int, is_dir: bool) -> int:
        """Pick and mark an inode; returns the inum."""
        ipg = self.layout.sb.inodes_per_group
        if is_dir:
            order = sorted(
                range(len(self.groups)),
                key=lambda g: -self.groups[g].inodes.free_count,
            )
        else:
            home = self.layout.group_of_inum(parent_inum)
            order = [home] + [
                g for g in range(len(self.groups)) if g != home
            ]
        for g in order:
            index = self.groups[g].inodes.find_free()
            if index is not None:
                self.groups[g].inodes.set(index)
                return g * ipg + index
        raise NoSpace("out of inodes")

    def free_inode(self, inum: int) -> None:
        group = self.layout.group_of_inum(inum)
        index = inum % self.layout.sb.inodes_per_group
        self.groups[group].inodes.clear(index)

    # ------------------------------------------------------------------
    # Blocks and fragments
    # ------------------------------------------------------------------

    def alloc_block(self, goal_lba: int) -> int:
        """Allocate one full block, preferring ``goal_lba`` onward."""
        fpb = self.layout.frags_per_block
        if goal_lba >= 1:
            try:
                goal_group = self.layout.group_of_block(goal_lba)
            except ValueError:
                goal_group = 0
        else:
            goal_group = 0
        order = [goal_group] + [
            g for g in range(len(self.groups)) if g != goal_group
        ]
        for g in order:
            group = self.groups[g]
            goal_bit = 0
            if g == goal_group and goal_lba >= 1:
                start = self.layout.group_start(g)
                goal_bit = max(0, (goal_lba - start)) * fpb
            frag = group.frags.find_free_run(fpb, align=fpb, goal=goal_bit)
            if frag is not None:
                group.frags.set_run(frag, fpb)
                return self.layout.group_start(g) + frag // fpb
        raise NoSpace("out of data blocks")

    def free_block(self, lba: int) -> None:
        group_index = self.layout.group_of_block(lba)
        group = self.groups[group_index]
        fpb = self.layout.frags_per_block
        base = (lba - self.layout.group_start(group_index)) * fpb
        group.frags.clear_run(base, fpb)

    def alloc_frags(self, count: int, goal_lba: int) -> int:
        """Allocate ``count`` contiguous fragments inside one block;
        returns the absolute fragment number."""
        fpb = self.layout.frags_per_block
        goal_group = 0
        if goal_lba >= 1:
            try:
                goal_group = self.layout.group_of_block(goal_lba)
            except ValueError:
                goal_group = 0
        order = [goal_group] + [
            g for g in range(len(self.groups)) if g != goal_group
        ]
        for g in order:
            group = self.groups[g]
            frag = group.frags.find_frag_run(count, fpb)
            if frag is not None:
                group.frags.set_run(frag, count)
                return self.layout.group_start(g) * fpb + frag
        raise NoSpace("out of fragments")

    def free_frags(self, frag: int, count: int) -> None:
        fpb = self.layout.frags_per_block
        lba = frag // fpb
        group_index = self.layout.group_of_block(lba)
        group = self.groups[group_index]
        base = frag - self.layout.group_start(group_index) * fpb
        group.frags.clear_run(base, count)

    # ------------------------------------------------------------------

    def free_space(self) -> Tuple[int, int]:
        """(free fragments, free inodes) across all groups."""
        frags = sum(g.frags.free_count for g in self.groups)
        inodes = sum(g.inodes.free_count for g in self.groups)
        return frags, inodes
