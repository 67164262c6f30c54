"""The log-structured file system proper.

All writes accumulate in the file cache (optionally NVRAM) and reach disk
through the segment writer; reads go through the inode map and inode block
pointers with *no* read-ahead (the LLD port disabled it, Section 4.4).
Create and delete are pure memory operations until a flush -- the flip side
of UFS's synchronous metadata, and the reason Figure 6's comparison is
about virtual-logging's effect on each file system rather than UFS vs LFS.

Inodes are packed ~30 to a log block; the inode map records (block, slot).
The cleaner copies live blocks out of victim segments; segment usage is
tracked exactly (per-block for data, per-slot weights for inode blocks).

Path resolution, directories and the namespace calls are
:class:`~repro.fs.namespace.InodeNamespace`'s, shared with UFS; this
module supplies its storage hooks and the data path.  Two things are
written once here for the whole log family, VLFS and its compactor
included: :meth:`LFS._owned_blocks` (every block an inode owns) and
:meth:`LFS._set_pointer` (re-point a file block or, given a negative
:class:`BlockKind` code, an indirect block's parent).
"""

from __future__ import annotations

import struct
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.blockdev.interface import BlockDevice
from repro.fs.api import FileNotFound, NoSpace
from repro.fs.dirfile import DirectoryBlock
from repro.fs.inode import FileType, INODE_SIZE, Inode, NUM_DIRECT
from repro.fs.namespace import InodeNamespace
from repro.fs.path import split_path
from repro.hosts.specs import HostSpec
from repro.lfs.checkpoint import CheckpointStore
from repro.lfs.cleaner import Cleaner, CleanerPolicy
from repro.lfs.inode_map import InodeMap, SegmentUsage
from repro.lfs.layout import LFSLayout
from repro.lfs.nvram import FileCache
from repro.lfs.segment import BlockKind, SegmentSummary, SegmentWriter
from repro.sched.idle import IdleManager
from repro.sim.stats import Breakdown
from repro.vlog.recovery import RecoveryOutcome, fold_outcomes

_IB_HEADER = struct.Struct("<II")

#: inodes per packed inode block: header + n * (inum + inode) must fit.
INODES_PER_LOG_BLOCK = 30

ROOT_INUM = 1


def _pack_inode_block(
    block_size: int, inodes: List[Tuple[int, Inode]]
) -> bytes:
    if len(inodes) > INODES_PER_LOG_BLOCK:
        raise ValueError("too many inodes for one block")
    body = b"".join(
        inum.to_bytes(4, "little") + inode.pack() for inum, inode in inodes
    )
    raw = _IB_HEADER.pack(len(inodes), 0) + body
    return raw + bytes(block_size - len(raw))


def _unpack_inode_block(raw: bytes) -> List[Tuple[int, Inode]]:
    count, _pad = _IB_HEADER.unpack(raw[: _IB_HEADER.size])
    result = []
    offset = _IB_HEADER.size
    for _ in range(count):
        inum = int.from_bytes(raw[offset : offset + 4], "little")
        inode = Inode.unpack(raw[offset + 4 : offset + 4 + INODE_SIZE])
        result.append((inum, inode))
        offset += 4 + INODE_SIZE
    return result


class LFS(InodeNamespace):
    """Log-structured file system over a block device."""

    _root_inum = ROOT_INUM
    #: Host CPU cost of a request relative to the in-kernel UFS: the
    #: MinixUFS + LLD stack the paper measured runs at user level.
    host_factor = 1.8
    #: Free segments the cleaner keeps in reserve for its own copies.
    reserve_segments = 3

    def __init__(
        self,
        device: BlockDevice,
        host: HostSpec,
        nvram: bool = False,
        cleaner_policy: CleanerPolicy = CleanerPolicy.COST_BENEFIT,
    ) -> None:
        self.device = device
        self.host = host
        self.clock = device.clock
        self.block_size = device.block_size
        self.layout = LFSLayout.design(device.num_blocks, device.block_size)
        sb = self.layout.sb
        self.imap = InodeMap(sb.max_inodes)
        self.segusage = SegmentUsage(
            sb.num_segments, self.layout.segment_bytes
        )
        self.cache = FileCache(block_size=self.block_size, nvram=nvram)
        self.writer = SegmentWriter(
            device, self.layout, self._pick_free_segment
        )
        self.checkpoints = CheckpointStore(device, self.layout)
        self.cleaner = Cleaner(self, cleaner_policy)
        #: in-memory (active) inodes; authoritative between flushes
        self._inodes: Dict[int, Inode] = {}
        self._dirty_inodes: Set[int] = set()
        #: per-slot live-byte weights of on-disk inode blocks
        self._inode_block_weights: Dict[int, Dict[int, int]] = {}
        self._cleaning = False
        self._flushing = False
        #: Idle-budget dispatch: flush, then clean, then the device.
        self.idle_manager = IdleManager(self.clock)
        self.idle_manager.register("flush", self._idle_flush)
        self.idle_manager.register("clean", self._idle_clean)
        self.idle_manager.register("device", self._idle_device)
        self._mkfs()

    # ==================================================================
    # Setup and recovery
    # ==================================================================

    def _mkfs(self) -> None:
        self.device.write_block(0, self.layout.sb.pack())
        root = Inode(itype=FileType.DIRECTORY, nlink=2)
        self._inodes[ROOT_INUM] = root
        self._dirty_inodes.add(ROOT_INUM)
        breakdown = Breakdown()
        self._stage_dirty_inodes(breakdown)
        self.writer.sync()
        self.checkpoint()

    def checkpoint(self) -> Breakdown:
        """Flush everything and write a checkpoint region."""
        breakdown = Breakdown()
        self._flush_all(breakdown)
        breakdown.add(self.writer.sync())
        breakdown.add(
            self.checkpoints.write(
                self.imap,
                self.segusage,
                self.writer.flush_seqno,
                self.clock.now,
            )
        )
        return breakdown

    def crash(self) -> None:
        """Abrupt power loss: volatile state is dropped.

        With NVRAM, the file cache *and* the cached inode state survive --
        the paper's NVRAM assumption is that the buffer cache (which in
        MinixUFS holds metadata too) gives "a similar reliability
        guarantee as that of the synchronous systems".  Without NVRAM
        everything volatile is lost, the segment the writer was filling
        included; with NVRAM that staging survives with the cache, whose
        entries it left clean.  The device crashes beneath; only
        :meth:`recover` may run next.
        """
        self.cache.crash()
        if not self.cache.nvram:
            self.writer.crash()
            self._inodes.clear()
            self._dirty_inodes.clear()
        self._inode_block_weights.clear()
        self.device.crash()

    def power_down(self) -> Breakdown:
        """Orderly shutdown: a checkpoint, then the device's own."""
        breakdown = self.checkpoint()
        breakdown.add(self.device.power_down())
        return breakdown

    def recover(self) -> RecoveryOutcome:
        """Recover the device, then mount: load the newest checkpoint and
        roll forward over the segment summaries younger than it.  The
        device's outcome comes back folded, this mount's cost added."""
        outcome = fold_outcomes([self.device.recover()])
        breakdown = outcome.breakdown
        header, cost = self.checkpoints.read_latest(self.imap, self.segusage)
        breakdown.add(cost)
        cp_flush_seqno = header.flush_seqno if header else 0
        self.writer.flush_seqno = cp_flush_seqno
        # Roll forward: apply summaries younger than the checkpoint.
        newer: List[Tuple[int, int, SegmentSummary]] = []
        for segment in range(self.layout.sb.num_segments):
            start = self.layout.segment_start(segment)
            raw, cost = self.device.read_block(start)
            breakdown.add(cost)
            summary = SegmentSummary.unpack(raw)
            if summary is not None and summary.seqno > cp_flush_seqno:
                newer.append((summary.seqno, segment, summary))
        for seqno, segment, summary in sorted(newer):
            self._roll_forward_segment(segment, summary, breakdown)
            self.writer.flush_seqno = max(self.writer.flush_seqno, seqno)
        if newer:
            self._recompute_usage(breakdown)
        return outcome

    def _roll_forward_segment(
        self, segment: int, summary: SegmentSummary, breakdown: Breakdown
    ) -> None:
        start = self.layout.segment_start(segment)
        for i, entry in enumerate(summary.entries):
            if entry.kind != BlockKind.INODE_BLOCK:
                continue  # data pointers live inside the inodes that follow
            address = start + 1 + i
            raw, cost = self.device.read_block(address)
            breakdown.add(cost)
            for slot, (inum, _inode) in enumerate(_unpack_inode_block(raw)):
                self.imap.set(inum, address, slot)

    def _recompute_usage(self, breakdown: Breakdown) -> None:
        """Rebuild exact live-byte counts by scanning segment summaries."""
        for segment in range(self.layout.sb.num_segments):
            start = self.layout.segment_start(segment)
            raw, cost = self.device.read_block(start)
            breakdown.add(cost)
            summary = SegmentSummary.unpack(raw)
            if summary is None or not summary.entries:
                self.segusage.mark_clean(segment)
                continue
            live = 0
            for i, entry in enumerate(summary.entries):
                address = start + 1 + i
                if entry.kind == BlockKind.INODE_BLOCK:
                    iraw, cost = self.device.read_block(address)
                    breakdown.add(cost)
                    slots = _unpack_inode_block(iraw)
                    weights = self._block_weights(len(slots))
                    live_slots = {}
                    for slot, (inum, _inode) in enumerate(slots):
                        if self.imap.get(inum) == (address, slot):
                            live += weights[slot]
                            live_slots[slot] = weights[slot]
                    if live_slots:
                        self._inode_block_weights[address] = live_slots
                elif self._pointer_matches(
                    entry.inum, entry.fblk, address, breakdown
                ):
                    live += self.block_size
            self.segusage.live_bytes[segment] = live
            self.segusage.last_write[segment] = summary.timestamp
            self.segusage._clean[segment] = False
            if live == 0:
                self.segusage.mark_clean(segment)

    def _pointer_matches(
        self, inum: int, fblk: int, address: int, breakdown: Breakdown
    ) -> bool:
        """Does ``inum``'s pointer for ``fblk`` (or indirect code) still
        reference ``address``?  Used by usage recomputation."""
        inode = self._live_inode_for(inum, breakdown)
        if inode is None:
            return False
        return self._get_pointer(inode, inum, fblk, breakdown) == address

    # ==================================================================
    # Host accounting
    # ==================================================================

    def _start_op(self, blocks: int = 1) -> Breakdown:
        cost = self.host.request_overhead(blocks) * self.host_factor
        self.clock.advance(cost)
        breakdown = Breakdown()
        breakdown.charge("other", cost)
        return breakdown

    # ==================================================================
    # Inode management
    # ==================================================================

    def _read_inode(self, inum: int, breakdown: Breakdown) -> Inode:
        inode = self._inodes.get(inum)
        if inode is not None:
            return inode
        location = self.imap.get(inum)
        if location is None:
            raise FileNotFound(f"inode {inum} is not allocated")
        address, slot = location
        raw = self._read_log_block(address, breakdown)
        entries = _unpack_inode_block(raw)
        if slot >= len(entries) or entries[slot][0] != inum:
            raise FileNotFound(f"inode {inum} not found at its map address")
        inode = entries[slot][1]
        self._inodes[inum] = inode
        return inode

    def _mark_inode_dirty(self, inum: int) -> None:
        self._dirty_inodes.add(inum)

    def _write_inode(
        self, inum: int, inode: Inode, sync: bool, breakdown: Breakdown
    ) -> None:
        """Inodes reach the log with the next flush, whatever ``sync``
        says: an update only marks the in-memory inode dirty."""
        self._dirty_inodes.add(inum)

    def _new_inode(self, parent: int, inode: Inode, breakdown: Breakdown) -> int:
        """A pure memory operation until a flush; the log has no use for
        placement near ``parent``."""
        inum = self.imap.lowest_unused(self._inodes)
        if inum is None:
            raise NoSpace("out of inodes")
        self._inodes[inum] = inode
        self._mark_inode_dirty(inum)
        return inum

    @staticmethod
    def _block_weights(count: int) -> List[int]:
        """Per-slot live-byte weights summing exactly to the block size."""
        if count == 0:
            return []
        base = 4096 // count
        weights = [base] * count
        weights[0] += 4096 - base * count
        return weights

    # ==================================================================
    # Block pointers (direct / single / double indirect)
    # ==================================================================

    @property
    def _ppb(self) -> int:
        return self.block_size // 4

    def _read_log_block(self, address: int, breakdown: Breakdown) -> bytes:
        """Read a log block, honouring the writer's staging buffer."""
        staged = self.writer.staged_data(address)
        if staged is not None:
            return staged
        raw, cost = self.device.read_block(address)
        breakdown.add(cost)
        return raw

    def _meta_block(
        self, inum: int, code: int, disk_addr: int, breakdown: Breakdown
    ) -> bytearray:
        """Fetch an indirect block (cache first, then the log, else fresh)."""
        cached = self.cache.get((inum, code))
        if cached is not None:
            return bytearray(cached)
        if disk_addr:
            raw = self._read_log_block(disk_addr, breakdown)
            self.cache.put_clean((inum, code), bytes(raw))
            return bytearray(raw)
        return bytearray(self.block_size)

    def _get_pointer(
        self, inode: Inode, inum: int, fblk: int, breakdown: Breakdown
    ) -> int:
        """The address ``fblk`` points at.  A negative ``fblk`` is a
        :class:`BlockKind` indirect code, answered from that table's
        parent: the inode, or the double root for a level-1 table."""
        if fblk < 0:
            if fblk == BlockKind.SINGLE_INDIRECT:
                return inode.indirect
            if fblk == BlockKind.DOUBLE_INDIRECT:
                return inode.double_indirect
            index = -(fblk + 3)
            root = self._meta_block(
                inum, BlockKind.DOUBLE_INDIRECT, inode.double_indirect,
                breakdown,
            )
            return int.from_bytes(root[index * 4 : index * 4 + 4], "little")
        if fblk < NUM_DIRECT:
            return inode.direct[fblk]
        f = fblk - NUM_DIRECT
        if f < self._ppb:
            if not inode.indirect and (inum, BlockKind.SINGLE_INDIRECT) not in self.cache:
                return 0
            table = self._meta_block(
                inum, BlockKind.SINGLE_INDIRECT, inode.indirect, breakdown
            )
            return int.from_bytes(table[f * 4 : f * 4 + 4], "little")
        f -= self._ppb
        index = f // self._ppb
        if not inode.double_indirect and (inum, BlockKind.DOUBLE_INDIRECT) not in self.cache:
            return 0
        root = self._meta_block(
            inum, BlockKind.DOUBLE_INDIRECT, inode.double_indirect, breakdown
        )
        l1_addr = int.from_bytes(root[index * 4 : index * 4 + 4], "little")
        code = BlockKind.level1(index)
        if not l1_addr and (inum, code) not in self.cache:
            return 0
        table = self._meta_block(inum, code, l1_addr, breakdown)
        return int.from_bytes(
            table[(f % self._ppb) * 4 : (f % self._ppb) * 4 + 4], "little"
        )

    def _set_pointer(
        self,
        inode: Inode,
        inum: int,
        fblk: int,
        address: int,
        breakdown: Breakdown,
    ) -> int:
        """Point ``fblk`` (negative: an indirect block, through its
        parent, as in :meth:`_get_pointer`) at ``address``; returns the
        displaced address."""
        if fblk < 0:
            if fblk == BlockKind.SINGLE_INDIRECT:
                old, inode.indirect = inode.indirect, address
            elif fblk == BlockKind.DOUBLE_INDIRECT:
                old, inode.double_indirect = inode.double_indirect, address
            else:
                index = -(fblk + 3)
                root = self._meta_block(
                    inum, BlockKind.DOUBLE_INDIRECT, inode.double_indirect,
                    breakdown,
                )
                old = int.from_bytes(root[index * 4 : index * 4 + 4], "little")
                root[index * 4 : index * 4 + 4] = address.to_bytes(4, "little")
                self._put_meta_dirty(
                    inum, BlockKind.DOUBLE_INDIRECT, root, breakdown
                )
            self._mark_inode_dirty(inum)
            return old
        if fblk < NUM_DIRECT:
            old = inode.direct[fblk]
            inode.direct[fblk] = address
            self._mark_inode_dirty(inum)
            return old
        f = fblk - NUM_DIRECT
        if f < self._ppb:
            table = self._meta_block(
                inum, BlockKind.SINGLE_INDIRECT, inode.indirect, breakdown
            )
            old = int.from_bytes(table[f * 4 : f * 4 + 4], "little")
            table[f * 4 : f * 4 + 4] = address.to_bytes(4, "little")
            self._put_meta_dirty(inum, BlockKind.SINGLE_INDIRECT, table, breakdown)
            return old
        f -= self._ppb
        index = f // self._ppb
        root = self._meta_block(
            inum, BlockKind.DOUBLE_INDIRECT, inode.double_indirect, breakdown
        )
        l1_addr = int.from_bytes(root[index * 4 : index * 4 + 4], "little")
        code = BlockKind.level1(index)
        table = self._meta_block(inum, code, l1_addr, breakdown)
        slot = f % self._ppb
        old = int.from_bytes(table[slot * 4 : slot * 4 + 4], "little")
        table[slot * 4 : slot * 4 + 4] = address.to_bytes(4, "little")
        self._put_meta_dirty(inum, code, table, breakdown)
        self._put_meta_dirty(inum, BlockKind.DOUBLE_INDIRECT, root, breakdown)
        return old

    def _put_meta_dirty(
        self, inum: int, code: int, table: bytearray, breakdown: Breakdown
    ) -> None:
        self._ensure_cache_room(breakdown)
        self.cache.put_dirty((inum, code), bytes(table))
        self._mark_inode_dirty(inum)

    # ==================================================================
    # The flush path (cache -> segments)
    # ==================================================================

    def _ensure_cache_room(self, breakdown: Breakdown) -> None:
        if self._flushing or self._cleaning:
            return  # flush/clean paths may dirty metadata re-entrantly
        if self.cache.would_overflow(1):
            self._flush_all(breakdown)
            breakdown.add(self.writer.sync())

    def _ensure_free_segments(self, target: int, breakdown: Breakdown) -> None:
        if self._cleaning:
            return
        usage = self.segusage
        current = self.writer.current_segment
        available = len(usage.clean_segments(exclude=current)) + len(
            usage.reclaimable(exclude=current)
        )
        if available >= target:
            return
        self._cleaning = True
        try:
            breakdown.add(self.cleaner.clean_until_free(target))
        finally:
            self._cleaning = False

    def _pick_free_segment(self) -> int:
        """Open a new segment for the writer.

        Ordinary writers may not consume the cleaning reserve: when the
        pool drops to ``reserve_segments``, the cleaner runs *first* (its
        own staging is allowed into the reserve -- that is what the
        reserve exists for).  This is the discipline that prevents the
        classic LFS live-lock where every segment is partially live and
        the cleaner has nowhere to put survivors.
        """
        usage = self.segusage
        if not self._cleaning:
            available = len(usage.clean_segments()) + len(
                usage.reclaimable()
            )
            if available <= self.reserve_segments:
                self._cleaning = True
                try:
                    self.cleaner.clean_until_free(self.reserve_segments + 2)
                finally:
                    self._cleaning = False
        clean = usage.clean_segments()
        if clean:
            return clean[0]
        reclaimable = usage.reclaimable()
        if reclaimable:
            segment = reclaimable[0]
            usage.mark_clean(segment)
            return segment
        raise NoSpace("log out of clean segments")

    def _flush_all(self, breakdown: Breakdown) -> None:
        """Drain every dirty cache block and dirty inode into the log."""
        if self._flushing:
            return
        dirty = self.cache.dirty_items()
        if not dirty and not self._dirty_inodes:
            return
        needed = 2 + len(dirty) // self.layout.data_blocks_per_segment
        self._ensure_free_segments(
            max(self.reserve_segments, needed), breakdown
        )
        self._flushing = True
        try:
            by_inode: Dict[int, List[Tuple[Tuple[int, int], bytes]]] = {}
            for key, data in dirty:
                by_inode.setdefault(key[0], []).append((key, data))
            for inum, items in by_inode.items():
                # Keep the reserve topped up as the flush consumes space.
                self._ensure_free_segments(self.reserve_segments, breakdown)
                self._stage_inode_blocks(inum, items, breakdown)
            # Indirect blocks dirtied while staging data above.
            remaining = self.cache.dirty_items()
            by_inode.clear()
            for key, data in remaining:
                by_inode.setdefault(key[0], []).append((key, data))
            for inum, items in by_inode.items():
                self._stage_inode_blocks(inum, items, breakdown)
            self._stage_dirty_inodes(breakdown)
        finally:
            self._flushing = False

    def _stage_inode_blocks(
        self,
        inum: int,
        items: List[Tuple[Tuple[int, int], bytes]],
        breakdown: Breakdown,
    ) -> None:
        """Stage one inode's dirty blocks: data, then indirect bottom-up."""
        inode = self._inodes.get(inum)
        if inode is None:
            # The inode vanished (deleted) after the blocks were dirtied.
            for key, _data in items:
                self.cache.forget(key)
            return
        data_items = [(k, d) for k, d in items if k[1] >= 0]
        meta_items = [(k, d) for k, d in items if k[1] < 0]
        for key, data in data_items:
            self._stage_one(
                BlockKind.DATA, inum, key[1], data, inode, breakdown
            )
            self.cache.mark_clean(key)
        # Indirect blocks: level-1 tables first, then the double root, then
        # the single indirect, so parents capture children's new addresses.
        def depth(code: int) -> int:
            if code <= -3:
                return 0
            if code == BlockKind.DOUBLE_INDIRECT:
                return 1
            return 2
        for key, _stale in sorted(meta_items, key=lambda kv: depth(kv[0][1])):
            code = key[1]
            current = self.cache.get(key)
            if current is None:
                continue
            self._stage_one(
                BlockKind.INDIRECT, inum, code, current, inode, breakdown
            )
            self.cache.mark_clean(key)

    def _stage_one(
        self,
        kind: int,
        inum: int,
        fblk: int,
        data: bytes,
        inode: Inode,
        breakdown: Breakdown,
    ) -> None:
        address, cost = self.writer.stage(kind, inum, fblk, data)
        breakdown.add(cost)
        old = self._set_pointer(inode, inum, fblk, address, breakdown)
        if old:
            self._note_dead_block(old)
        self._note_live_block(address)
        self._mark_inode_dirty(inum)

    def _stage_dirty_inodes(self, breakdown: Breakdown) -> None:
        dirty = sorted(
            i for i in self._dirty_inodes if i in self._inodes
        )
        self._dirty_inodes.clear()
        for lo in range(0, len(dirty), INODES_PER_LOG_BLOCK):
            batch = dirty[lo : lo + INODES_PER_LOG_BLOCK]
            inodes = [(inum, self._inodes[inum]) for inum in batch]
            raw = _pack_inode_block(self.block_size, inodes)
            address, cost = self.writer.stage(
                BlockKind.INODE_BLOCK, batch[0], 0, raw
            )
            breakdown.add(cost)
            weights = self._block_weights(len(batch))
            slot_weights: Dict[int, int] = {}
            for slot, inum in enumerate(batch):
                self._note_dead_inode(inum)
                self.imap.set(inum, address, slot)
                slot_weights[slot] = weights[slot]
            self._inode_block_weights[address] = slot_weights
            self._note_live_block(address)

    def _note_live_block(self, address: int) -> None:
        """Space accounting hook: a block-sized write landed at
        ``address``.  (VLFS overrides the accounting hooks to use a
        free-space map instead of segment usage.)"""
        self.segusage.note_write(
            self.layout.segment_of_block(address),
            self.block_size,
            self.clock.now,
        )

    def _note_dead_block(self, address: int) -> None:
        self.segusage.note_dead(
            self.layout.segment_of_block(address), self.block_size
        )

    def _note_dead_inode(self, inum: int) -> None:
        location = self.imap.get(inum)
        if location is None:
            return
        address, slot = location
        weights = self._inode_block_weights.get(address)
        weight = 0
        if weights is not None:
            weight = weights.pop(slot, 0)
            if not weights:
                del self._inode_block_weights[address]
        if weight:
            self._note_dead_segment_bytes(address, weight)

    def _note_dead_segment_bytes(self, address: int, nbytes: int) -> None:
        self.segusage.note_dead(
            self.layout.segment_of_block(address), nbytes
        )

    # ==================================================================
    # Cleaning support (called by the Cleaner)
    # ==================================================================

    def copy_live_blocks(self, victim: int) -> Breakdown:
        """Read a victim segment and re-append everything still live."""
        breakdown = Breakdown()
        start = self.layout.segment_start(victim)
        raw, cost = self.device.read_blocks(start, self.layout.segment_blocks)
        breakdown.add(cost)
        summary = SegmentSummary.unpack(raw[: self.block_size])
        if summary is None:
            self.segusage.mark_clean(victim)
            return breakdown
        live_inodes: List[int] = []
        for i, entry in enumerate(summary.entries):
            address = start + 1 + i
            block = raw[(1 + i) * self.block_size : (2 + i) * self.block_size]
            if entry.kind == BlockKind.INODE_BLOCK:
                for slot, (inum, _ino) in enumerate(_unpack_inode_block(block)):
                    if self.imap.get(inum) == (address, slot):
                        self._read_inode(inum, breakdown)
                        live_inodes.append(inum)
                self._inode_block_weights.pop(address, None)
            else:  # DATA or INDIRECT: live while its owner points here
                inode = self._live_inode_for(entry.inum, breakdown)
                if inode is None:
                    continue
                if self._get_pointer(
                    inode, entry.inum, entry.fblk, breakdown
                ) != address:
                    continue
                cached = self.cache.get((entry.inum, entry.fblk))
                payload = cached if cached is not None else block
                self._stage_one(
                    entry.kind, entry.inum, entry.fblk, payload, inode,
                    breakdown,
                )
                self.cleaner.blocks_copied += 1
        for inum in live_inodes:
            self._mark_inode_dirty(inum)
        self._stage_dirty_inodes(breakdown)
        self.segusage.mark_clean(victim)
        return breakdown

    def _live_inode_for(
        self, inum: int, breakdown: Breakdown
    ) -> Optional[Inode]:
        if inum in self._inodes:
            return self._inodes[inum]
        if not self.imap.allocated(inum):
            return None
        return self._read_inode(inum, breakdown)

    # ==================================================================
    # File data access
    # ==================================================================

    def _read_file_block(
        self, inum: int, inode: Inode, fblk: int, breakdown: Breakdown
    ) -> bytes:
        cached = self.cache.get((inum, fblk))
        if cached is not None:
            return cached
        address = self._get_pointer(inode, inum, fblk, breakdown)
        if not address:
            return bytes(self.block_size)
        raw = self._read_log_block(address, breakdown)
        self.cache.put_clean((inum, fblk), bytes(raw))
        return bytes(raw)

    def _write_file_block(
        self, inum: int, fblk: int, data: bytes, breakdown: Breakdown
    ) -> None:
        self._ensure_cache_room(breakdown)
        self.cache.put_dirty((inum, fblk), data)
        self._mark_inode_dirty(inum)

    # ==================================================================
    # Directory blocks (the namespace's storage hooks)
    # ==================================================================

    def _parsed_dir_blocks(
        self, inum: int, inode: Inode, breakdown: Breakdown
    ) -> Iterator[Tuple[int, DirectoryBlock]]:
        """Yield (file block index, parsed block) of a directory.

        Every block comes through :meth:`_read_file_block`, so a pass
        costs what file I/O costs; only the *parse* is reused, for as
        long as the bytes read are the bytes it was made from (see
        :meth:`DirectoryBlock.cached`)."""
        for fblk in range(-(-inode.size // self.block_size)):
            raw = self._read_file_block(inum, inode, fblk, breakdown)
            yield fblk, DirectoryBlock.cached(self.cache, (inum, fblk), raw)

    def _dir_store(
        self, inum: int, inode: Inode, fblk: int, block: DirectoryBlock,
        breakdown: Breakdown,
    ) -> None:
        """A directory edit is a buffered file write like any other."""
        self._write_file_block(inum, fblk, block.pack(), breakdown)
        inode.mtime = self.clock.now
        self._mark_inode_dirty(inum)

    def _dir_append(
        self, inum: int, inode: Inode, block: DirectoryBlock,
        breakdown: Breakdown,
    ) -> None:
        fblk = -(-inode.size // self.block_size)
        self._write_file_block(inum, fblk, block.pack(), breakdown)
        inode.size = (fblk + 1) * self.block_size
        inode.mtime = self.clock.now
        self._mark_inode_dirty(inum)

    # ==================================================================
    # Public API
    # ==================================================================

    # The namespace calls are InodeNamespace's.  The performance ledger
    # patches its traced methods through ``cls.__dict__`` (benchmarks/
    # ledger/spans.py), so the two it traces must be entries of this class.
    create = InodeNamespace.create
    unlink = InodeNamespace.unlink

    def truncate(self, path: str, size: int) -> Breakdown:
        if size < 0:
            raise ValueError("size must be non-negative")
        breakdown = self._start_op()
        inum, inode = self._file_at(path, breakdown)
        if size < inode.size:
            first_dead = -(-size // self.block_size)
            old_blocks = -(-inode.size // self.block_size)
            for fblk in range(first_dead, old_blocks):
                old = self._set_pointer(inode, inum, fblk, 0, breakdown)
                if old:
                    self._note_dead_block(old)
                self.cache.forget((inum, fblk))
            # Zero the now-dead suffix of a kept partial block so sparse
            # re-extension reads zeros.
            if size % self.block_size and first_dead > 0:
                keep = size % self.block_size
                raw = bytearray(
                    self._read_file_block(inum, inode, first_dead - 1,
                                          breakdown)
                )
                raw[keep:] = bytes(self.block_size - keep)
                self._write_file_block(
                    inum, first_dead - 1, bytes(raw), breakdown
                )
        inode.size = size
        inode.mtime = self.clock.now
        self._mark_inode_dirty(inum)
        return breakdown

    def _owned_blocks(
        self, inum: int, inode: Inode, breakdown: Breakdown
    ) -> Iterator[Tuple[int, int]]:
        """Yield ``(key, address)`` for every log block the inode owns:
        ``key >= 0`` is a file block index, ``key < 0`` the
        :class:`BlockKind` code of an indirect block -- what
        :meth:`_set_pointer` takes back.  Data blocks first, then the
        single and double indirect, then the level-1 tables."""
        for fblk in range(-(-inode.size // self.block_size)):
            address = self._get_pointer(inode, inum, fblk, breakdown)
            if address:
                yield fblk, address
        if inode.indirect:
            yield BlockKind.SINGLE_INDIRECT, inode.indirect
        if inode.double_indirect:
            yield BlockKind.DOUBLE_INDIRECT, inode.double_indirect
            root = self._meta_block(
                inum, BlockKind.DOUBLE_INDIRECT, inode.double_indirect,
                breakdown,
            )
            for index in range(self._ppb):
                address = int.from_bytes(
                    root[index * 4 : index * 4 + 4], "little"
                )
                if address:
                    yield BlockKind.level1(index), address

    def _drop_inode(self, inum: int, inode: Inode, breakdown: Breakdown) -> None:
        for _key, address in self._owned_blocks(inum, inode, breakdown):
            self._note_dead_block(address)
        self._note_dead_inode(inum)
        self.imap.clear(inum)
        self._inodes.pop(inum, None)
        self._dirty_inodes.discard(inum)
        self.cache.forget_inode(inum)

    # ------------------------------------------------------------------

    def write(
        self, path: str, offset: int, data: bytes, sync: bool = False
    ) -> Breakdown:
        if offset < 0:
            raise ValueError("offset must be non-negative")
        nblocks = max(1, -(-len(data) // self.block_size))
        breakdown = self._start_op(nblocks)
        inum, inode = self._file_at(path, breakdown)
        position = offset
        end = offset + len(data)
        while position < end:
            fblk = position // self.block_size
            lo = position % self.block_size
            hi = min(self.block_size, lo + (end - position))
            piece = data[position - offset : position - offset + hi - lo]
            if lo == 0 and hi == self.block_size:
                block = piece
            else:
                base = bytearray(
                    self._read_file_block(inum, inode, fblk, breakdown)
                )
                base[lo:hi] = piece
                block = bytes(base)
            self._write_file_block(inum, fblk, block, breakdown)
            position += hi - lo
        inode.size = max(inode.size, end)
        inode.mtime = self.clock.now
        self._mark_inode_dirty(inum)
        if sync and not self.cache.nvram:
            breakdown.add(self._fsync_inum(inum, breakdown))
        return breakdown

    def read(self, path: str, offset: int, length: int):
        if offset < 0 or length < 0:
            raise ValueError("offset and length must be non-negative")
        nblocks = max(1, -(-length // self.block_size))
        breakdown = self._start_op(nblocks)
        inum, inode = self._file_at(path, breakdown)
        length = max(0, min(length, inode.size - offset))
        pieces: List[bytes] = []
        position = offset
        end = offset + length
        while position < end:
            fblk = position // self.block_size
            lo = position % self.block_size
            hi = min(self.block_size, lo + (end - position))
            raw = self._read_file_block(inum, inode, fblk, breakdown)
            pieces.append(raw[lo:hi])
            position += hi - lo
        return b"".join(pieces), breakdown

    # ------------------------------------------------------------------

    def _fsync_inum(self, inum: int, host_breakdown: Breakdown) -> Breakdown:
        """Stage one inode's dirty state and apply the partial-segment
        threshold policy."""
        breakdown = Breakdown()
        items = self.cache.dirty_items_for(inum)
        if items or inum in self._dirty_inodes:
            self._ensure_free_segments(self.reserve_segments, breakdown)
            self._stage_inode_blocks(inum, items, breakdown)
            self._stage_dirty_inodes(breakdown)
        breakdown.add(self.writer.sync())
        return breakdown

    def fsync(self, path: str) -> Breakdown:
        breakdown = self._start_op()
        inum = self._namei(split_path(path), breakdown)
        if self.cache.nvram:
            return breakdown  # NVRAM already provides stability
        breakdown.add(self._fsync_inum(inum, breakdown))
        return breakdown

    def sync(self) -> Breakdown:
        breakdown = self._start_op()
        if self.cache.nvram:
            return breakdown
        self._flush_all(breakdown)
        breakdown.add(self.writer.sync())
        return breakdown

    def _flush_batch(self, max_blocks: int) -> Breakdown:
        """Stage up to ``max_blocks`` dirty blocks (oldest first) into the
        log; used by idle-time background flushing."""
        breakdown = Breakdown()
        if self._flushing:
            return breakdown
        dirty = self.cache.dirty_items()[:max_blocks]
        self._ensure_free_segments(self.reserve_segments, breakdown)
        self._flushing = True
        try:
            by_inode: Dict[int, List[Tuple[Tuple[int, int], bytes]]] = {}
            for key, data in dirty:
                by_inode.setdefault(key[0], []).append((key, data))
            for inum, items in by_inode.items():
                self._stage_inode_blocks(inum, items, breakdown)
            self._stage_dirty_inodes(breakdown)
        finally:
            self._flushing = False
        breakdown.add(self.writer.sync())
        return breakdown

    def drop_caches(self) -> None:
        self.cache.drop_clean()

    def idle(self, seconds: float) -> Breakdown:
        """Idle time: flush buffered writes and clean, *within* the
        interval.

        Work proceeds in segment-sized steps (Section 5.5's point: LFS can
        only exploit idle intervals long enough for segment-granularity
        operations).  Whatever does not fit stays for the next interval --
        or stalls a foreground write when the NVRAM fills first.  Worker
        order (flush, then clean, then the device's own background work)
        is fixed at registration; see :class:`IdleManager`.
        """
        return self.idle_manager.grant(seconds)

    def _has_dirty(self) -> bool:
        return bool(self.cache.dirty_blocks or self._dirty_inodes)

    def _idle_flush_batch(self) -> int:
        return self.layout.data_blocks_per_segment

    def _idle_flush(self, remaining: float) -> Optional[Breakdown]:
        if not self._has_dirty():
            return None
        breakdown = Breakdown()
        deadline = self.clock.now + remaining
        while self.clock.now < deadline and self._has_dirty():
            breakdown.add(self._flush_batch(self._idle_flush_batch()))
        return breakdown

    def _idle_clean(self, remaining: float) -> Breakdown:
        self._cleaning = True
        try:
            return self.cleaner.run_idle(self.clock.now + remaining)
        finally:
            self._cleaning = False

    def _idle_device(self, remaining: float) -> None:
        # Remaining idle time belongs to the device (VLD compaction).
        self.device.idle(remaining)

    # ------------------------------------------------------------------

    def free_segments(self) -> int:
        current = self.writer.current_segment
        return len(self.segusage.clean_segments(exclude=current)) + len(
            self.segusage.reclaimable(exclude=current)
        )

    @property
    def utilization(self) -> float:
        """Live bytes as a fraction of log capacity."""
        live = sum(self.segusage.live_bytes)
        total = self.layout.sb.num_segments * self.layout.segment_bytes
        return live / total
