"""File system consistency checking for the UFS substrate (fsck).

The classic phases, adapted to this FFS layout:

1. **Inodes and block claims** — every allocated inode has a sane type and
   size; every block/fragment it references is in range, inside a data
   area, and claimed exactly once.
2. **Namespace** — every directory entry points to an allocated inode;
   every allocated inode is reachable from the root, no directory twice.
   The walk parses directory blocks itself, not through
   :mod:`repro.fs.namespace`: a checker must not reuse what it checks.
3. **Link counts** — every reachable inode's ``nlink`` equals the
   entries naming it, counted by the namespace's rule: a regular file
   has one link per entry, a directory two (``.`` and its entry in the
   parent, the root's own ``..``) plus one ``..`` per subdirectory.
4. **Allocation bitmaps** — the fragment and inode bitmaps agree exactly
   with the claims discovered in phases 1-2.

Returns a report instead of raising so callers (and tests injecting
corruption) can inspect everything that is wrong at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from repro.disk.freemap import lowest_set_bit
from repro.fs.api import CorruptDirectory
from repro.fs.dirfile import DirectoryBlock
from repro.fs.inode import FileType, NUM_DIRECT
from repro.sim.stats import Breakdown
from repro.ufs.ufs import UFS


@dataclass
class FsckReport:
    """Outcome of a consistency check."""

    errors: List[str] = field(default_factory=list)
    inodes_checked: int = 0
    blocks_claimed: int = 0
    frags_claimed: int = 0
    files: int = 0
    directories: int = 0

    @property
    def ok(self) -> bool:
        return not self.errors

    def complain(self, message: str) -> None:
        self.errors.append(message)


def fsck(fs: UFS) -> FsckReport:
    """Check a (quiesced) UFS instance for structural consistency."""
    report = FsckReport()
    breakdown = Breakdown()
    layout = fs.layout
    claimed_frags: Dict[int, int] = {}  # absolute frag -> claiming inum
    allocated_inums: Set[int] = set()
    links: Dict[int, Tuple[bool, int]] = {}  # inum -> (is_dir, nlink)
    named: List[Tuple[int, int]] = []  # (directory, child) per entry

    def claim_block(lba: int, inum: int, what: str) -> None:
        if not 1 <= lba < layout.sb.total_blocks:
            report.complain(f"inode {inum}: {what} block {lba} out of range")
            return
        group = layout.group_of_block(lba)
        if lba < layout.data_start(group):
            report.complain(
                f"inode {inum}: {what} block {lba} inside metadata area"
            )
            return
        base = layout.block_to_frag(lba)
        for k in range(layout.frags_per_block):
            _claim_frag(base + k, inum, what)
        report.blocks_claimed += 1

    def _claim_frag(frag: int, inum: int, what: str) -> None:
        other = claimed_frags.get(frag)
        if other is not None:
            report.complain(
                f"fragment {frag} claimed by both inode {other} and "
                f"inode {inum} ({what})"
            )
        claimed_frags[frag] = inum

    # ---- phase 1: inodes and their claims -----------------------------
    for group_index, group in enumerate(fs.alloc.groups):
        for index in range(layout.sb.inodes_per_group):
            inum = group_index * layout.sb.inodes_per_group + index
            if inum == 0:
                continue
            if not group.inodes.test(index):
                continue
            allocated_inums.add(inum)
            inode = fs._read_inode(inum, breakdown)
            report.inodes_checked += 1
            if inode.is_free:
                report.complain(
                    f"inode {inum} allocated in bitmap but marked free"
                )
                continue
            if inode.itype not in (FileType.REGULAR, FileType.DIRECTORY):
                report.complain(f"inode {inum}: unknown type {inode.itype}")
                continue
            if inode.is_dir:
                report.directories += 1
            else:
                report.files += 1
            links[inum] = (inode.is_dir, inode.nlink)
            _check_inode_claims(fs, inum, inode, claim_block, _claim_frag,
                                report, breakdown)

    # ---- phase 2: namespace -------------------------------------------
    reachable = _check_namespace(
        fs, allocated_inums, named, report, breakdown
    )
    for inum in sorted(allocated_inums - reachable):
        report.complain(f"inode {inum} allocated but unreachable (orphan)")

    # ---- phase 3: link counts -------------------------------------------
    _check_link_counts(links, named, reachable, report)

    # ---- phase 4: bitmaps ----------------------------------------------
    _check_bitmaps(fs, claimed_frags, report)
    return report


def _check_inode_claims(fs, inum, inode, claim_block, claim_frag, report,
                        breakdown) -> None:
    layout = fs.layout
    size = inode.size
    uses_frags = fs._uses_tail_frags(size)
    nblocks = size // layout.block_size if uses_frags else (
        -(-size // layout.block_size)
    )
    for fblk in range(min(nblocks, NUM_DIRECT)):
        lba = inode.direct[fblk]
        if lba:
            claim_block(lba, inum, f"direct[{fblk}]")
    if inode.indirect:
        claim_block(inode.indirect, inum, "indirect")
        _claim_indirect(fs, inum, inode.indirect, claim_block, report,
                        breakdown, "single")
    if inode.double_indirect:
        claim_block(inode.double_indirect, inum, "double-indirect")
        raw, cost = fs.cache.read(inode.double_indirect)
        breakdown.add(cost)
        for i in range(fs._ppb):
            level1 = int.from_bytes(raw[i * 4 : i * 4 + 4], "little")
            if level1:
                claim_block(level1, inum, f"double[{i}]")
                _claim_indirect(fs, inum, level1, claim_block, report,
                                breakdown, f"double[{i}]")
    frag_addr, frag_count = inode.tail_frags()
    if frag_count:
        if not uses_frags:
            report.complain(
                f"inode {inum}: tail fragments present but size {size} "
                "does not use them"
            )
        expected = -(-(size % layout.block_size) // layout.frag_size)
        if uses_frags and frag_count != expected:
            report.complain(
                f"inode {inum}: tail has {frag_count} frags, size implies "
                f"{expected}"
            )
        for k in range(frag_count):
            claim_frag(frag_addr + k, inum, "tail")
        report.frags_claimed += frag_count
    elif uses_frags and size % layout.block_size:
        report.complain(f"inode {inum}: missing tail fragments")


def _claim_indirect(fs, inum, table_lba, claim_block, report, breakdown,
                    label) -> None:
    raw, cost = fs.cache.read(table_lba)
    breakdown.add(cost)
    for i in range(fs._ppb):
        lba = int.from_bytes(raw[i * 4 : i * 4 + 4], "little")
        if lba:
            claim_block(lba, inum, f"{label}[{i}]")


def _check_namespace(fs, allocated, named, report, breakdown) -> Set[int]:
    """Walk the tree from the root; every entry naming an allocated inode
    is appended to ``named`` as ``(directory, child)``.  Returns the
    reachable inodes."""
    layout = fs.layout
    root = layout.sb.root_inum
    reachable: Set[int] = set()
    if root not in allocated:
        report.complain("root inode not allocated")
        return reachable
    stack: List[Tuple[int, str]] = [(root, "/")]
    reachable.add(root)
    while stack:
        inum, path = stack.pop()
        inode = fs._read_inode(inum, breakdown)
        if not inode.is_dir:
            continue
        for _fblk, lba in fs._dir_blocks(inode, breakdown):
            raw, cost = fs.cache.read(lba)
            breakdown.add(cost)
            try:
                entries = DirectoryBlock.cached(fs.cache, lba, raw).entries
            except CorruptDirectory as exc:
                report.complain(
                    f"directory inode {inum}: block {lba} is corrupt ({exc})"
                )
                continue
            for name, child in entries.items():
                child_path = f"{path.rstrip('/')}/{name}"
                if child not in allocated:
                    report.complain(
                        f"{child_path}: entry references unallocated "
                        f"inode {child}"
                    )
                    continue
                named.append((inum, child))
                if child in reachable:
                    child_inode = fs._read_inode(child, breakdown)
                    if child_inode.is_dir:
                        report.complain(
                            f"{child_path}: directory hard link (inode "
                            f"{child} already reachable)"
                        )
                    continue
                reachable.add(child)
                stack.append((child, child_path))
    return reachable


def _check_link_counts(links, named, reachable, report) -> None:
    """Each reachable inode's ``nlink`` against the entries naming it
    (phase 3's rule).  An unreachable inode is phase 2's orphan: nothing
    walked names it, so it is not counted again here."""
    expected = {inum: 2 if is_dir else 0 for inum, (is_dir, _) in links.items()}
    for directory, child in named:
        if child not in links:
            continue  # phase 1 already rejected it
        if links[child][0]:
            expected[directory] += 1  # the subdirectory's ".."
        else:
            expected[child] += 1
    for inum in sorted(reachable & links.keys()):
        nlink = links[inum][1]
        if nlink != expected[inum]:
            report.complain(
                f"inode {inum}: link count {nlink}, {expected[inum]} expected"
            )


def _check_bitmaps(fs, claimed_frags, report) -> None:
    """Each group's fragment bitmap against what phases 1-2 claimed, as
    two integers: only the bits that differ are visited, in bit order."""
    layout = fs.layout
    fpb = layout.frags_per_block
    group_bits = layout.sb.blocks_per_group * fpb
    first_frag = layout.group_start(0) * fpb
    # A group's metadata blocks are in use without any inode claiming them.
    claimed = [(1 << layout.meta_blocks_per_group * fpb) - 1] * len(
        fs.alloc.groups
    )
    for frag in claimed_frags:
        group_index, bit = divmod(frag - first_frag, group_bits)
        if 0 <= group_index < len(claimed):
            claimed[group_index] |= 1 << bit
    for group_index, group in enumerate(fs.alloc.groups):
        marked = int.from_bytes(group.frags.pack(), "little") & (
            (1 << group_bits) - 1
        )
        base = first_frag + group_index * group_bits
        differing = marked ^ claimed[group_index]
        while differing:
            bit = lowest_set_bit(differing)
            differing &= differing - 1
            if marked >> bit & 1:
                report.complain(
                    f"fragment {base + bit} marked used but unclaimed (leak)"
                )
            else:
                report.complain(
                    f"fragment {base + bit} in use but free in the bitmap"
                )
