"""The virtual log file system (Section 3.3, Figure 4).

The namespace (paths, directories, create / unlink / rename ...) is
:class:`~repro.fs.namespace.InodeNamespace`'s, the one copy UFS uses too;
what is specific to the log family (in-memory inodes, the file cache, the
flush discipline, the owned-blocks walk) is inherited from LFS; the
storage engine differs:

* every staged block is **eagerly written immediately** to a free 4 KB
  block near the disk head (no segments, no partial-segment threshold);
* the inode map is chunked into 512-byte records threaded through a
  :class:`~repro.vlog.virtual_log.VirtualLog` -- the *only* log content,
  exactly as Figure 4 draws it;
* superseded blocks return directly to a free-space map: **no cleaner**
  ("the free space compactor is only an optimization for VLFS, the
  cleaner is a necessity for LFS");
* recovery bootstraps from the firmware power-down record (scan fallback)
  and rebuilds the inode map from the virtual log, then walks the inodes
  to reconstruct space accounting.

The host/drive split: VLFS runs on the drive's processor, so each file
system operation is charged one drive command overhead plus host CPU time,
while internal block I/O pays mechanics only.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.blockdev.regular import RegularDisk
from repro.disk.disk import Disk
from repro.disk.freemap import FreeSpaceMap
from repro.fs.api import NoSpace
from repro.fs.inode import FileType, Inode
from repro.hosts.specs import HostSpec
from repro.lfs.inode_map import InodeMap
from repro.lfs.layout import LFSLayout
from repro.lfs.lfs import LFS, ROOT_INUM
from repro.lfs.nvram import FileCache
from repro.sched.idle import IdleManager
from repro.sim.stats import Breakdown
from repro.vlog.allocator import AllocationPolicy, DiskFullError, EagerAllocator
from repro.vlog.entries import MAP_RECORD_BYTES, entries_per_chunk
from repro.vlog.recovery import (
    PowerDownStore,
    RecoveryOutcome,
    disk_reader,
    recover_log,
)
from repro.vlog.virtual_log import VirtualLog


class _InternalDevice(RegularDisk):
    """Identity block device used by the drive's own processor: internal
    transfers pay mechanics but no per-command SCSI overhead."""

    def read_blocks(self, lba: int, count: int):
        self.check_lba(lba, count)
        return self.disk.read(
            self._sector_of(lba), count * self.sectors_per_block,
            charge_scsi=False,
        )

    def write_blocks(self, lba, count, data=None):
        self.check_lba(lba, count)
        data = self.check_data(data, count)
        return self.disk.write(
            self._sector_of(lba), count * self.sectors_per_block, data,
            charge_scsi=False,
        )

    def write_partial(self, lba: int, offset: int, data: bytes):
        self.check_partial(lba, offset, data)
        sector_bytes = self.disk.sector_bytes
        start = self._sector_of(lba) + offset // sector_bytes
        return self.disk.write(
            start, len(data) // sector_bytes, data, charge_scsi=False
        )


class _EagerLogWriter:
    """Drop-in for :class:`SegmentWriter`: stage == write, immediately,
    at an eagerly chosen block near the head."""

    def __init__(self, device: _InternalDevice, allocator: EagerAllocator):
        self.device = device
        self.allocator = allocator
        self.current_segment = None  # interface compatibility
        self.flush_seqno = 0
        self.partial_flushes = 0
        self.segments_written = 0
        self.blocks_written = 0

    def stage(
        self, kind: int, inum: int, fblk: int, data: bytes
    ) -> Tuple[int, Breakdown]:
        try:
            address = self.allocator.allocate()
        except DiskFullError as exc:
            raise NoSpace(str(exc)) from exc
        breakdown = self.device.write_block(address, data)
        self.blocks_written += 1
        return address, breakdown

    def staged_data(self, address: int) -> Optional[bytes]:
        return None  # nothing is ever deferred

    def sync(self) -> Breakdown:
        self.flush_seqno += 1
        return Breakdown()  # every block already reached the platter

    def finish_segment(self) -> Breakdown:
        return Breakdown()


class VLFS(LFS):
    """LFS semantics over eager writing and a virtual log (Section 3.3)."""

    POWER_DOWN_BLOCK = 0
    #: No user-level port in the path: the plain host cost per request.
    host_factor = 1.0
    #: No segments, so no cleaning reserve.
    reserve_segments = 0

    def __init__(self, disk: Disk, host: HostSpec, nvram: bool = False) -> None:
        # NOTE: deliberately does not call LFS.__init__ -- the segment
        # machinery it builds is replaced wholesale.  Every attribute the
        # inherited methods use is established here.
        self.disk = disk
        self.device = _InternalDevice(disk)
        self.host = host
        self.clock = disk.clock
        self.block_size = self.device.block_size
        self.layout = LFSLayout.design(
            self.device.num_blocks, self.block_size
        )
        sb = self.layout.sb
        self.imap = InodeMap(sb.max_inodes)
        self._chunk_capacity = entries_per_chunk(MAP_RECORD_BYTES)
        # Space lives in the free map: no segment usage and no cleaner.
        self.cache = FileCache(block_size=self.block_size, nvram=nvram)
        self.freemap = FreeSpaceMap(disk.geometry)
        self.allocator = EagerAllocator(
            disk,
            self.freemap,
            block_sectors=self.device.sectors_per_block,
            policy=AllocationPolicy.TRACK_FILL,
        )
        self.allocator.reserve_block(self.POWER_DOWN_BLOCK)
        record_sectors = MAP_RECORD_BYTES // disk.sector_bytes
        self.map_allocator = EagerAllocator(
            disk,
            self.freemap,
            block_sectors=record_sectors,
            policy=AllocationPolicy.GREEDY_CYLINDER,
        )
        self.vlog = VirtualLog(
            disk,
            self.map_allocator,
            chunk_provider=self._imap_chunk_entries,
            block_size=MAP_RECORD_BYTES,
        )
        self.power_store = PowerDownStore(
            disk,
            self.POWER_DOWN_BLOCK,
            self.block_size,
            tail_block_sectors=record_sectors,
        )
        self.vlog.power_store = self.power_store
        self.writer = _EagerLogWriter(self.device, self.allocator)
        self._inodes: Dict[int, Inode] = {}
        self._dirty_inodes: Set[int] = set()
        self._inode_block_weights: Dict[int, Dict[int, int]] = {}
        self._cleaning = False
        self._flushing = False
        self.compactor = VLFSCompactor(self)
        # Idle time flushes buffered writes block-by-block, then compacts.
        # Eager writing needs no cleaner; the compactor ("only an
        # optimization for VLFS", Section 3.4) consolidates free space
        # into empty tracks for the track-fill allocator.
        self.idle_manager = IdleManager(self.clock)
        self.idle_manager.register("flush", self._idle_flush)
        self.idle_manager.register("compact", self._idle_compact)
        self._mkfs()

    # ==================================================================
    # Inode-map chunking (the virtual log's payload)
    # ==================================================================

    def _imap_chunk_bounds(self, chunk_id: int) -> Tuple[int, int]:
        lo = chunk_id * self._chunk_capacity
        hi = min(lo + self._chunk_capacity, self.imap.max_inodes)
        return lo, hi

    def _imap_chunk_entries(self, chunk_id: int) -> List[int]:
        lo, hi = self._imap_chunk_bounds(chunk_id)
        return self.imap.entries_slice(lo, hi)

    def _chunk_of_inum(self, inum: int) -> int:
        return inum // self._chunk_capacity

    def _append_imap_chunks(
        self, inums, breakdown: Breakdown
    ) -> None:
        for chunk_id in sorted({self._chunk_of_inum(i) for i in inums}):
            breakdown.add(
                self.vlog.append(chunk_id, self._imap_chunk_entries(chunk_id))
            )

    # ==================================================================
    # Setup
    # ==================================================================

    def _mkfs(self) -> None:
        self._inodes[ROOT_INUM] = Inode(itype=FileType.DIRECTORY, nlink=2)
        self._dirty_inodes.add(ROOT_INUM)
        self._stage_dirty_inodes(Breakdown())

    # ==================================================================
    # Storage-engine overrides
    # ==================================================================

    def _start_op(self, blocks: int = 1) -> Breakdown:
        """Host CPU plus one drive command per file system operation."""
        host_cost = self.host.request_overhead(blocks) * self.host_factor
        self.clock.advance(host_cost)
        breakdown = Breakdown()
        breakdown.charge("other", host_cost)
        breakdown.charge("scsi", self.disk.spec.scsi_overhead)
        self.clock.advance(self.disk.spec.scsi_overhead)
        return breakdown

    def _note_live_block(self, address: int) -> None:
        pass  # the allocator marked the space at stage time

    def _note_dead_block(self, address: int) -> None:
        self.allocator.free_block(address)

    def _note_dead_inode(self, inum: int) -> None:
        location = self.imap.get(inum)
        if location is None:
            return
        address, slot = location
        weights = self._inode_block_weights.get(address)
        if weights is None:
            return
        weights.pop(slot, None)
        if not weights:
            del self._inode_block_weights[address]
            self.allocator.free_block(address)

    def _ensure_free_segments(self, target: int, breakdown: Breakdown) -> None:
        pass  # no segments: free space is managed by the freemap

    def _stage_dirty_inodes(self, breakdown: Breakdown) -> None:
        staged = sorted(i for i in self._dirty_inodes if i in self._inodes)
        super()._stage_dirty_inodes(breakdown)
        # The commit point: affected inode-map chunks enter the virtual
        # log (Figure 4: the map is the log's only content).
        if staged:
            self._append_imap_chunks(staged, breakdown)

    def _drop_inode(self, inum, inode, breakdown) -> None:
        super()._drop_inode(inum, inode, breakdown)
        self._append_imap_chunks([inum], breakdown)

    # ==================================================================
    # Space and idle
    # ==================================================================

    @property
    def utilization(self) -> float:
        return self.freemap.utilization

    def free_segments(self) -> int:
        """Free space expressed in segment-equivalents (compatibility)."""
        free_bytes = self.freemap.free_sectors * self.disk.sector_bytes
        return free_bytes // self.layout.segment_bytes

    def checkpoint(self) -> Breakdown:
        """VLFS needs no checkpoint region: flushing suffices, because the
        virtual log *is* the recoverable inode map.  (The paper's optional
        contiguous-map checkpoint would only shorten log traversal.)"""
        breakdown = Breakdown()
        self._flush_all(breakdown)
        return breakdown

    def _idle_flush_batch(self) -> int:
        return 64

    def _idle_compact(self, remaining: float) -> None:
        self.compactor.run_for(remaining)

    # ==================================================================
    # Crash and recovery (virtual-log based)
    # ==================================================================

    def power_down(self) -> Breakdown:
        breakdown = Breakdown()
        self._flush_all(breakdown)
        if self.vlog.tail is not None:
            breakdown.add(
                self.power_store.write(
                    self.vlog.tail, self.vlog.next_seqno - 1
                )
            )
        return breakdown

    def crash(self) -> None:
        self.cache.crash()
        if not self.cache.nvram:
            self._inodes.clear()
            self._dirty_inodes.clear()

    def recover(self) -> RecoveryOutcome:
        """Rebuild the inode map from the virtual log, then walk the
        inodes to reconstruct free-space accounting."""
        chunks, outcome, _dead_runs = recover_log(
            self.vlog, self.power_store, disk_reader(self.disk)
        )
        breakdown = outcome.breakdown
        for chunk_id, entries in (chunks or {}).items():
            lo, _hi = self._imap_chunk_bounds(chunk_id)
            self.imap.load_slice(lo, entries)
        self._rebuild_space_state(breakdown)
        if chunks is not None:
            # Repair only now: its relocation appends allocate blocks,
            # which is safe once the free map knows the recovered state.
            breakdown.add(self.vlog.repair_reachability())
            breakdown.add(self.power_store.clear())
        return outcome

    def _rebuild_space_state(self, breakdown: Breakdown) -> None:
        """Mark used: the power-down home, live map records, inode blocks,
        and every block reachable from a live inode."""
        self.freemap.mark_free(0, self.disk.total_sectors)
        spb = self.device.sectors_per_block
        self.freemap.mark_used(self.POWER_DOWN_BLOCK * spb, spb)
        map_spb = self.vlog.sectors_per_block
        for record in self.vlog.live_blocks():
            self.freemap.mark_used(record * map_spb, map_spb)
        self._inode_block_weights.clear()
        inode_blocks: Dict[int, Dict[int, int]] = {}
        for inum in self.imap.live_inums():
            address, slot = self.imap.get(inum)
            inode_blocks.setdefault(address, {})[slot] = 1
        for address, slots in inode_blocks.items():
            self.freemap.mark_used(address * spb, spb)
            weights = LFS._block_weights(max(slots) + 1)
            self._inode_block_weights[address] = {
                slot: weights[slot] for slot in slots
            }
        for inum in list(self.imap.live_inums()):
            inode = self._read_inode(inum, breakdown)
            for _key, address in self._owned_blocks(inum, inode, breakdown):
                self.freemap.mark_used(address * spb, spb)


class VLFSCompactor:
    """Idle-time hole-plugging compactor for VLFS.

    Like the VLD's compactor it empties partially-filled tracks by moving
    live blocks into holes elsewhere, but ownership is resolved through
    the file system's own structures: data and indirect blocks move by
    pointer update, inode blocks by re-staging their inodes, and map
    records by relocation through the virtual log.
    """

    def __init__(self, fs: VLFS) -> None:
        self.fs = fs
        self.blocks_moved = 0
        self.tracks_compacted = 0

    # ------------------------------------------------------------------

    def run_for(self, seconds: float) -> float:
        if not seconds >= 0.0:
            raise ValueError("idle budget must be non-negative")
        fs = self.fs
        clock = fs.clock
        start = clock.now
        deadline = start + seconds
        # Tracks a pass left no emptier: a track whose only live content
        # is a map record gets that record back on every relocation, so
        # picking it again would spend the whole budget going nowhere.
        stuck: Set[Tuple[int, int]] = set()
        while clock.now < deadline:
            owners = self._ownership()
            target = self._pick_target(stuck)
            if target is None:
                break
            free = fs.freemap.track_free_count(*target)
            if not self._compact_track(target, owners, deadline):
                break
            if fs.freemap.track_free_count(*target) > free:
                self.tracks_compacted += 1
            else:
                stuck.add(target)
        return clock.now - start

    # ------------------------------------------------------------------

    def _ownership(self) -> Dict[int, Tuple]:
        """physical block -> ``(inum, key)`` as ``LFS._owned_blocks``
        keys them, or ``(None, None)`` for a block of packed inodes.  Map
        records are asked of the vlog."""
        fs = self.fs
        breakdown = Breakdown()
        owners: Dict[int, Tuple] = {}
        inums = set(fs.imap.live_inums()) | set(fs._inodes)
        for inum in inums:
            inode = fs._live_inode_for(inum, breakdown)
            if inode is None:
                continue
            for key, address in fs._owned_blocks(inum, inode, breakdown):
                owners[address] = (inum, key)
            location = fs.imap.get(inum) if fs.imap.allocated(inum) else None
            if location is not None:
                owners[location[0]] = (None, None)
        return owners

    def _pick_target(self, stuck) -> Optional[Tuple[int, int]]:
        """The partially-filled track with the least live data (cheapest
        to empty), excluding the allocator's fill track and ``stuck``."""
        fs = self.fs
        geometry = fs.disk.geometry
        per_track = geometry.sectors_per_track
        fill_track = fs.allocator._fill_track
        power_track = geometry.decompose(
            fs.POWER_DOWN_BLOCK * fs.device.sectors_per_block
        )[:2]
        best = None
        for cylinder in range(geometry.num_cylinders):
            for head in range(geometry.tracks_per_cylinder):
                track = (cylinder, head)
                if track in (fill_track, power_track) or track in stuck:
                    continue
                free = fs.freemap.track_free_count(cylinder, head)
                if 0 < free < per_track:
                    used = per_track - free
                    if best is None or used < best[0]:
                        best = (used, track)
        return None if best is None else best[1]

    def _compact_track(self, track, owners, deadline) -> bool:
        fs = self.fs
        geometry = fs.disk.geometry
        spb = fs.device.sectors_per_block
        map_spb = fs.vlog.sectors_per_block
        base = geometry.track_start(*track)
        end = base + geometry.sectors_per_track
        breakdown = Breakdown()
        progressed = False
        sector = base
        dirty_inodes_to_flush = False
        while sector < end:
            if fs.clock.now >= deadline:
                break
            if fs.freemap.is_free(sector):
                sector += 1
                continue
            block = sector // spb
            owner = owners.get(block) if sector % spb == 0 else None
            if owner is not None:
                if self._move_block(block, owner, track, breakdown):
                    progressed = True
                    dirty_inodes_to_flush = True
                    owners.pop(block, None)
                sector += spb
                continue
            record = sector // map_spb
            if (
                sector % map_spb == 0
                and fs.vlog.chunk_of_block(record) is not None
            ):
                fs.vlog.relocate(fs.vlog.chunk_of_block(record))
                progressed = True
                sector += map_spb
                continue
            sector += 1
        if dirty_inodes_to_flush:
            fs._stage_dirty_inodes(breakdown)
        return progressed

    def _move_block(self, block, owner, source_track, breakdown) -> bool:
        fs = self.fs
        spb = fs.device.sectors_per_block
        inum, key = owner
        if inum is None:
            # Re-staging the resident inodes supersedes this inode block.
            moved = False
            for cand in list(fs.imap.live_inums()):
                location = fs.imap.get(cand)
                if location and location[0] == block:
                    fs._read_inode(cand, breakdown)
                    fs._mark_inode_dirty(cand)
                    moved = True
            return moved
        destination = self._find_hole(source_track)
        if destination is None:
            return False
        data, _cost = fs.disk.read(block * spb, spb, charge_scsi=False)
        fs.freemap.mark_used(destination * spb, spb)
        fs.disk.write(destination * spb, spb, data, charge_scsi=False)
        inode = fs._live_inode_for(inum, breakdown)
        if inode is None:
            fs.freemap.mark_free(destination * spb, spb)
            return False
        old = fs._set_pointer(inode, inum, key, destination, breakdown)
        if old:
            fs._note_dead_block(old)
        self.blocks_moved += 1
        return True

    def _find_hole(self, source_track) -> Optional[int]:
        fs = self.fs
        geometry = fs.disk.geometry
        spb = fs.device.sectors_per_block
        per_track = geometry.sectors_per_track
        disk = fs.disk
        best = None
        for cylinder in range(geometry.num_cylinders):
            for head in range(geometry.tracks_per_cylinder):
                if (cylinder, head) == source_track:
                    continue
                free = fs.freemap.track_free_count(cylinder, head)
                if free < spb or free == per_track:
                    continue
                found = fs.freemap.nearest_free_run(
                    cylinder, head, disk.slot_after(0.0), spb, align=spb
                )
                if found is None:
                    continue
                gap, linear = found
                if best is None or gap < best[0]:
                    best = (gap, linear // spb)
        return None if best is None else best[1]
