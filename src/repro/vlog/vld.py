"""The Virtual Log Disk (Sections 3, 4.2).

A VLD packages eager writing, the indirection map, and the virtual log
behind the ordinary block-device interface, so an *unmodified* file system
gets the latency benefits.  Per logical write the drive:

1. eagerly writes the data to a free physical block near the head,
2. updates the in-memory indirection map, and
3. appends the affected map chunk to the virtual log (the commit point --
   one extra internal disk write, placed near the head as well).

The old physical copy (and the old map-record block) are recycled
afterwards; re-use of a logical address is how deletes are detected
("monitor overwrites", Section 4.2).  One SCSI command overhead is charged
per host request regardless of how many internal I/Os the drive issues --
the virtual log runs on the drive's own processor.

Crash/recovery: :meth:`power_down` persists the log tail for fast restarts;
:meth:`crash` models an abrupt failure.  :meth:`recover` rebuilds the map
from the tail record, or by scanning when that record is missing/corrupt.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple, Union

from repro.blockdev.interface import BlockDevice
from repro.disk.disk import Disk
from repro.disk.freemap import FreeSpaceMap
from repro.sched.idle import IdleManager
from repro.sched.policies import SchedulingPolicy
from repro.sched.scheduler import DiskScheduler
from repro.sim.stats import Breakdown
from repro.vlog.allocator import AllocationPolicy, EagerAllocator
from repro.vlog.compactor import FreeSpaceCompactor
from repro.vlog.entries import (
    MAP_RECORD_BYTES,
    QUARANTINE_CHUNK_BASE,
    entries_per_chunk,
)
from repro.vlog.imap import IndirectionMap
from repro.vlog.recovery import PowerDownStore, RecoveryOutcome, recover_log
from repro.vlog.resilience import MediaError, ResilienceController
from repro.vlog.virtual_log import VirtualLog


class VirtualLogDisk(BlockDevice):
    """Eager-writing logical disk over a simulated drive.

    Args:
        disk: The underlying simulated disk.
        policy: Eager allocation policy; ``TRACK_FILL`` is the paper's
            compactor-assisted configuration.
        fill_threshold: Track fill target for ``TRACK_FILL`` (0.75).
        queue_depth: Outstanding-request bound for the internal request
            scheduler; depth 1 (default) services every data write at
            submit time, byte-identical to the unscheduled code.
        sched: Scheduling policy name (``fifo``/``scan``/``satf``) or
            instance for the internal queue.
    """

    #: Physical block housing the firmware power-down record; never
    #: allocated, never moved.
    POWER_DOWN_BLOCK = 0

    def __init__(
        self,
        disk: Disk,
        map_record_bytes: int = MAP_RECORD_BYTES,
        policy: AllocationPolicy = AllocationPolicy.TRACK_FILL,
        fill_threshold: float = 0.75,
        queue_depth: int = 1,
        sched: Union[str, SchedulingPolicy] = "fifo",
    ) -> None:
        if disk._data is None:
            # The map, its log and the power-down record live on the
            # media, and the checksum store guards the image.
            raise ValueError(
                "a virtual log disk needs a disk that stores its sectors, "
                "not Disk(..., store_data=False)"
            )
        #: Physical (and logical) block size; the paper uses 4 KB
        #: (Section 4.2, justified by formula (9)).
        self.block_size = 4096
        if self.block_size % disk.sector_bytes != 0:
            raise ValueError("block size must be a multiple of the sector size")
        if map_record_bytes % disk.sector_bytes != 0:
            raise ValueError("map records must be whole sectors")
        self.disk = disk
        self.clock = disk.clock
        self.map_record_bytes = map_record_bytes
        self.sectors_per_block = self.block_size // disk.sector_bytes
        self.physical_blocks = disk.total_sectors // self.sectors_per_block
        # 2 % slack, so eager writing always finds somewhere to go.
        slack = max(8, int(self.physical_blocks * 0.02))
        # Map overhead: one live record per chunk (Section 4.2: 4 bytes per
        # physical block, ~24 KB of map sectors for the 24 MB disk).
        chunk_capacity = entries_per_chunk(map_record_bytes)
        logical = self.physical_blocks - 1 - slack  # -1: power-down block
        map_sectors = -(-logical // chunk_capacity) * (
            map_record_bytes // disk.sector_bytes
        )
        logical -= -(-map_sectors // self.sectors_per_block) + 1
        if logical <= 0:
            raise ValueError("disk too small for a virtual log disk")
        self.num_blocks = logical

        self.freemap = FreeSpaceMap(disk.geometry)
        self.allocator = EagerAllocator(
            disk,
            self.freemap,
            block_sectors=self.sectors_per_block,
            policy=policy,
            fill_threshold=fill_threshold,
        )
        self.allocator.reserve_block(self.POWER_DOWN_BLOCK)
        #: Separate eager allocator for (sub-block) map records: single
        #: free sectors are plentiful even when aligned block runs are
        #: not, which is what keeps map updates cheap at high utilization.
        self.map_allocator = EagerAllocator(
            disk,
            self.freemap,
            block_sectors=map_record_bytes // disk.sector_bytes,
            policy=AllocationPolicy.GREEDY_CYLINDER,
        )
        self.imap = IndirectionMap(self.num_blocks, map_record_bytes)
        self.vlog = VirtualLog(
            disk,
            self.map_allocator,
            chunk_provider=self._chunk_contents,
            block_size=map_record_bytes,
        )
        #: Media-fault resilience layer (checksums, retries, quarantine,
        #: scrubber); with no faults injected it costs no simulated time.
        self.resilience = ResilienceController(self)
        self.power_store = PowerDownStore(
            disk,
            self.POWER_DOWN_BLOCK,
            self.block_size,
            tail_block_sectors=map_record_bytes // disk.sector_bytes,
        )
        self.vlog.power_store = self.power_store
        #: physical block -> logical block, for the compactor.
        self.reverse: Dict[int, int] = {}
        self.logical_writes = 0
        self.logical_reads = 0
        self.compaction_enabled = True
        #: Request queue for eager data writes.  Log appends (the commit
        #: point), map-record traffic, and recovery I/O bypass it: their
        #: ordering *is* the crash-consistency argument, so they only run
        #: behind a drain barrier.
        self.scheduler = DiskScheduler(
            disk, policy=sched, queue_depth=queue_depth
        )
        #: Idle-time dispatch: scrubbing suspects first, then compaction.
        self.idle_manager = IdleManager(disk.clock)
        self.idle_manager.register("scrub", self._idle_scrub)
        self.idle_manager.register("compact", self._idle_compact)
        #: The idle-time free-space compactor.
        self.compactor = FreeSpaceCompactor(self)

    def _chunk_contents(self, chunk_id: int) -> List[int]:
        """Current contents of any non-commit log chunk: the indirection
        map's entries, or the quarantine table's payload for chunk ids in
        the quarantine range.  This is the log's ``chunk_provider``, so
        relocations (compactor, reachability repair, scrubber) rewrite
        every chunk kind faithfully."""
        if chunk_id >= QUARANTINE_CHUNK_BASE:
            return self.resilience.quarantine.chunk_payload(chunk_id)
        return self.imap.chunk_entries(chunk_id)

    def _read_physical(
        self,
        sector: int,
        count: int,
        breakdown: Optional[Breakdown],
    ) -> bytes:
        """Read sectors through the resilience layer (checksum verify +
        bounded retries)."""
        if self.scheduler.outstanding:
            # Read barrier: queued eager writes must reach the media first
            # (they may cover the very sectors being read).  Their costs
            # ride on the request that forced the flush.
            flushed = self.scheduler.barrier()
            if breakdown is not None:
                breakdown.add(flushed)
        return self.resilience.read_sectors(sector, count, breakdown)

    def _idle_scrub(self, remaining: float) -> None:
        if self.resilience.scrubber.pending:
            self.resilience.scrubber.run_for(remaining)

    def _idle_compact(self, remaining: float) -> None:
        if self.compaction_enabled:
            self.compactor.run_for(remaining)

    def idle(self, seconds: float) -> None:
        """Idle time goes to scrubbing suspects, then compaction; any
        remainder simply passes.  Queue-emptiness is the idle signal: the
        request queue drains before any background work starts.  The
        scrubber's check is cheap and almost always false: a VLD that
        never observed a fault spends every idle cycle exactly as before."""
        if not 0.0 <= seconds < math.inf:
            raise ValueError(f"idle time must be finite and non-negative: {seconds!r}")
        self.scheduler.barrier()
        self.idle_manager.grant(seconds)

    # ------------------------------------------------------------------
    # BlockDevice interface
    # ------------------------------------------------------------------

    def read_block(self, lba: int) -> Tuple[bytes, Breakdown]:
        return self.read_blocks(lba, 1)

    def read_blocks(self, lba: int, count: int) -> Tuple[bytes, Breakdown]:
        self.check_lba(lba, count)
        breakdown = self._charge_scsi()
        pieces: List[bytes] = []
        # Coalesce physically contiguous runs into single media accesses --
        # sequentially written data usually is contiguous thanks to
        # track-fill allocation.
        run_start: Optional[int] = None
        run_len = 0
        for i in range(count):
            physical = self.imap.get(lba + i)
            if physical is None:
                self._flush_read_run(run_start, run_len, pieces, breakdown)
                run_start, run_len = None, 0
                pieces.append(bytes(self.block_size))
                continue
            if run_start is not None and physical == run_start + run_len:
                run_len += 1
                continue
            self._flush_read_run(run_start, run_len, pieces, breakdown)
            run_start, run_len = physical, 1
        self._flush_read_run(run_start, run_len, pieces, breakdown)
        self.logical_reads += count
        return b"".join(pieces), breakdown

    def _flush_read_run(
        self,
        run_start: Optional[int],
        run_len: int,
        pieces: List[bytes],
        breakdown: Breakdown,
    ) -> None:
        if run_start is None or run_len == 0:
            return
        data = self._read_physical(
            run_start * self.sectors_per_block,
            run_len * self.sectors_per_block,
            breakdown,
        )
        pieces.append(data)

    def write_block(self, lba: int, data: Optional[bytes] = None) -> Breakdown:
        return self.write_blocks(lba, 1, data)

    def write_blocks(
        self, lba: int, count: int, data: Optional[bytes] = None
    ) -> Breakdown:
        self.check_lba(lba, count)
        data = self.check_data(data, count)
        breakdown = self._charge_scsi()
        # Process in runs that share a map chunk: write the data blocks of
        # the run, commit the chunk's map record once, then recycle the old
        # copies.  This both batches map updates (Section 3.2's transaction
        # note) and bounds transient space demand.
        # (``check_lba`` has vouched for the range: chunk ids by arithmetic.)
        capacity = self.imap.chunk_capacity
        i = 0
        while i < count:
            chunk_id = (lba + i) // capacity
            j = min(count, (chunk_id + 1) * capacity - lba)
            self._write_run(lba + i, data, i, j - i, chunk_id, breakdown)
            i = j
        self.logical_writes += count
        return breakdown

    def _write_run(
        self,
        lba: int,
        data: bytes,
        data_offset_blocks: int,
        count: int,
        chunk_id: int,
        breakdown: Breakdown,
    ) -> None:
        displaced: List[int] = []
        spb = self.sectors_per_block
        block_size = self.block_size
        imap_set = self.imap.set
        reverse = self.reverse
        if count > 1:
            # Run-granular movement: allocate a whole physically-contiguous
            # run, issue it as one run request (serviced block by block
            # with identical timing), and apply the map updates in one
            # pass.  Placement matches a per-block allocate() loop exactly
            # (the tests keep that loop as the reference): the run
            # extension only accepts blocks the scalar query is forced to
            # return, and a conservative stop merely splits the run.
            # Zero-copy payload slicing: the per-run pieces are views into
            # the caller's (immutable) buffer, not 4 KB copies.
            view = memoryview(data)
            i = 0
            while i < count:
                first_block, run = self.allocator.allocate_run(count - i)
                lo = (data_offset_blocks + i) * block_size
                if run == 1:
                    # A one-block run is serviced exactly like a plain
                    # write; skip the run-request wrapper.
                    self.scheduler.write(
                        first_block * spb,
                        spb,
                        view[lo : lo + block_size],
                        charge_scsi=False,
                    )
                else:
                    self.scheduler.write_run(
                        first_block * spb,
                        run * spb,
                        spb,
                        view[lo : lo + run * block_size],
                        charge_scsi=False,
                    )
                logical = lba + i
                for k in range(run):
                    old = imap_set(logical + k, first_block + k)
                    reverse[first_block + k] = logical + k
                    if old is not None:
                        displaced.append(old)
                i += run
        else:
            new_block = self.allocator.allocate()
            lo = data_offset_blocks * block_size
            self.scheduler.write(
                new_block * spb,
                spb,
                data[lo : lo + block_size],
                charge_scsi=False,
            )
            old = imap_set(lba, new_block)
            reverse[new_block] = lba
            if old is not None:
                displaced.append(old)
        # Write barrier, then the commit point: every queued data write
        # must reach the media before the map chunk's log record does, or
        # a crash between them would recover mappings to unwritten blocks.
        breakdown.add(self.scheduler.barrier())
        breakdown.add(
            self.vlog.append(chunk_id, self.imap.chunk_entries(chunk_id))
        )
        # Only now may the old copies be recycled (atomicity: a crash
        # before the commit recovers the old mapping and old data).
        reverse_pop = self.reverse.pop
        for old in displaced:
            reverse_pop(old, None)
        self.allocator.free_blocks(displaced)

    def move_block(
        self, lba: int, old_block: int, new_block: int, data: bytes
    ) -> int:
        """Relocate one live data block: media write plus the map/reverse
        bookkeeping, in the same order the write path applies it -- the
        single-block form of the batched movement path, shared by the
        compactor's hole-plugging and the scrubber's quarantine-first
        migration.  The caller owns allocating/freeing the physical
        blocks and committing the map record; the touched chunk id is
        returned for that commit."""
        spb = self.sectors_per_block
        self.disk.write(new_block * spb, spb, data, charge_scsi=False)
        self.imap.set(lba, new_block)
        self.reverse[new_block] = lba
        self.reverse.pop(old_block, None)
        return lba // self.imap.chunk_capacity  # ``set`` vouched for lba

    def write_partial(self, lba: int, offset: int, data: bytes) -> Breakdown:
        """Sub-block write: the VLD must read-modify-write a whole physical
        block (Section 4.2's internal-fragmentation bias against UFS)."""
        self.check_partial(lba, offset, data)
        if offset % self.disk.sector_bytes != 0:
            raise ValueError("partial writes must be sector aligned")
        breakdown = self._charge_scsi()
        physical = self.imap.get(lba)
        if physical is None:
            old = bytes(self.block_size)
        else:
            old = self._read_physical(
                physical * self.sectors_per_block,
                self.sectors_per_block,
                breakdown,
            )
        merged = old[:offset] + data + old[offset + len(data) :]
        chunk_id = self.imap.chunk_id_of(lba)
        self._write_run(lba, merged, 0, 1, chunk_id, breakdown)
        self.logical_writes += 1
        return breakdown

    def trim(self, lba: int, count: int = 1) -> Breakdown:
        """Explicitly free logical blocks (the delete visibility a logical
        disk otherwise lacks; Section 4.2 notes un-overwritten frees are
        missed without this)."""
        self.check_lba(lba, count)
        breakdown = self.scheduler.barrier()  # before the log commit
        touched: Dict[int, None] = {}
        displaced: List[int] = []
        for i in range(count):
            old = self.imap.clear(lba + i)
            if old is not None:
                displaced.append(old)
                touched[self.imap.chunk_id_of(lba + i)] = None
        for chunk_id in touched:
            breakdown.add(
                self.vlog.append(chunk_id, self.imap.chunk_entries(chunk_id))
            )
        for old in displaced:
            self.reverse.pop(old, None)
            self.allocator.free_block(old)
        return breakdown

    def _charge_scsi(self) -> Breakdown:
        # One command overhead per host request, a constant of the spec
        # (0.0 + x == x: the same figure a charge("scsi", x) would leave).
        overhead = self.disk.spec.scsi_overhead
        self.disk.clock.advance(overhead)
        return Breakdown(overhead)

    # ------------------------------------------------------------------
    # Crash, power-down, recovery
    # ------------------------------------------------------------------

    @property
    def utilization(self) -> float:
        """Physical space utilization in [0, 1]."""
        return self.freemap.utilization

    def power_down(self) -> Breakdown:
        """Orderly shutdown: persist the log tail at the fixed location."""
        breakdown = self.scheduler.barrier()  # nothing may outlive the queue
        if self.vlog.tail is None:
            return breakdown
        breakdown.add(
            self.power_store.write(self.vlog.tail, self.vlog.next_seqno - 1)
        )
        return breakdown

    def _recovery_read(
        self, sector: int, count: int, breakdown: Breakdown
    ) -> Optional[bytes]:
        """Recovery's reader: the resilience layer's retried read, ``None``
        for a run that stays unreadable after retries."""
        try:
            return self.resilience.read_sectors(sector, count, breakdown)
        except MediaError:
            return None

    def recover(self) -> RecoveryOutcome:
        """Rebuild all volatile state from the disk (Section 3.2):
        :func:`~repro.vlog.recovery.recover_log` rebuilds the log through
        the resilience layer's retried reads; this installs the map, the
        quarantine table and the free map it implies."""
        resilience = self.resilience
        media_errors_before = resilience.media_errors
        barrier_cost = self.scheduler.barrier()  # a live recover flushes first
        chunks, outcome, dead_runs = recover_log(
            self.vlog, self.power_store, self._recovery_read
        )
        breakdown = outcome.breakdown = barrier_cost.add(outcome.breakdown)
        if chunks is None:
            # Nothing was ever written: a fresh device.
            self._reset_volatile_state()
        else:
            self.imap.load_chunks(
                {c: p for c, p in chunks.items() if c < QUARANTINE_CHUNK_BASE}
            )
            # Install the quarantine *before* the space rebuild: the
            # blanket mark_free there then skips retired sectors itself.
            resilience.load_quarantine(
                {c: p for c, p in chunks.items() if c >= QUARANTINE_CHUNK_BASE}
            )
            self._rebuild_space_state()
            if dead_runs:
                outcome.conservatively_quarantined = self._retire_dead_runs(
                    dead_runs
                )
                breakdown.add(resilience.persist_quarantine())
            # Reachability repair was deferred past the space rebuild: its
            # relocation appends allocate blocks, which is only safe once
            # the free map knows where the recovered live data sits.
            breakdown.add(self.vlog.repair_reachability())
            breakdown.add(self.power_store.clear())
            outcome.quarantined_sectors = len(resilience.quarantine)
        outcome.media_errors = resilience.media_errors - media_errors_before
        return outcome

    def _retire_dead_runs(self, dead_runs: List[Tuple[int, int]]) -> int:
        """Conservative quarantine: a sector that stayed unreadable during
        recovery and is *free* in the rebuilt map holds only stale data
        (the case that matters: the youngest quarantine record dying on
        scan).  Nothing will ever re-read it, so no later access would
        re-discover the defect: retire it now, before the allocator can
        hand it out.  Dead sectors that are *live* are queued as suspects
        instead, for the scrubber's salvage-then-migrate path.  Returns
        the number retired."""
        resilience = self.resilience
        retired = 0
        for run_start, run_count in dead_runs:
            for s in range(run_start, run_start + run_count):
                if self.freemap.is_quarantined(s):
                    continue
                if self.freemap.is_free(s):
                    if resilience.quarantine_sector(s):
                        retired += 1
                else:
                    resilience.note_suspect(s)
        return retired

    def crash(self) -> None:
        """Abrupt failure: volatile state is lost; the disk image remains.

        Call :meth:`recover` afterwards to resume service.  (The power-down
        record is *not* written -- and any stale record from an earlier
        orderly shutdown would have been cleared at recovery, so a crash
        after normal operation forces the scan path unless the firmware
        managed the residual-power write, which callers model by invoking
        :meth:`power_down` first.)
        """
        # Queued writes never reached the media: they are simply gone.
        self.scheduler.discard_pending()
        self._reset_volatile_state()

    def _reset_volatile_state(self) -> None:
        self.imap.load_chunks({})
        self.reverse.clear()
        self.vlog.reset_volatile()
        # Drive RAM is gone: suspects and the in-memory quarantine copy
        # with it.  The table is reloaded from the log during recovery;
        # un-persisted additions are re-discovered by the reads that will
        # hit those sectors again.  (The checksum store survives -- it
        # models out-of-band ECC retained on the media itself.)
        self.resilience.suspects.clear()
        self.resilience.quarantine.load({})
        self.freemap.set_quarantined(())
        self._rebuild_space_state()

    def _rebuild_space_state(self) -> None:
        """Recompute the free map and reverse map from imap + vlog state."""
        geometry = self.disk.geometry
        self.freemap.mark_free(0, geometry.total_sectors)
        self.freemap.mark_used(
            self.POWER_DOWN_BLOCK * self.sectors_per_block,
            self.sectors_per_block,
        )
        self.reverse.clear()
        for lba, physical in self.imap.items():
            self.freemap.mark_used(
                physical * self.sectors_per_block, self.sectors_per_block
            )
            self.reverse[physical] = lba
        for record in self.vlog.live_blocks():
            self.freemap.mark_used(
                record * self.vlog.sectors_per_block,
                self.vlog.sectors_per_block,
            )
