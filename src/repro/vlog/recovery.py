"""Recovery bootstrap: the power-down record and the scan fallback.

Section 3.2: modern drives park the actuator using residual power when the
supply drops; the firmware can first record the current log-tail location
at a fixed disk location, protected by a checksum and cleared after
recovery.  Normal recovery reads that record and traverses the virtual log
from the tail.  In the "extremely rare case" the power-down write failed,
the checksum exposes it and recovery falls back to scanning the disk for
(cryptographically signed, here CRC-tagged) map records, taking the one
with the highest sequence number as the tail.

:func:`recover_log` is that sequence, written once for both owners of a
virtual log (the VLD and VLFS).
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.disk.disk import Disk
from repro.sim.stats import Breakdown
from repro.vlog.entries import MAGIC, MapRecord

if TYPE_CHECKING:
    from repro.vlog.virtual_log import VirtualLog

_MAGIC = b"VLOGPWDN"
_RECORD = struct.Struct("<8sqqI")

#: Rounds of an owner's read spent salvaging a run that stayed
#: unreadable through one: the scan's re-read of a slot it zero-filled
#: here, the scrubber's read of a suspect data block.  Salvage can
#: afford to try much harder than a foreground read, and a transiently
#: flaky sector usually yields within a few rounds.
SALVAGE_ROUNDS = 5


class PowerDownStore:
    """The fixed-location record written by the firmware at power-down.

    Args:
        disk: The drive the record lives on.
        block: Which ``block_size`` unit houses the record.
        block_size: Size of the record's home block in bytes.
        tail_block_sectors: Sectors per *tail* block (the unit ``tail_block``
            counts in -- the virtual log's map-record size, which may differ
            from ``block_size``).  Used to bounds-check recovered tails
            against the geometry; defaults to 1, the loosest sound bound.
    """

    def __init__(
        self,
        disk: Disk,
        block: int = 0,
        block_size: int = 4096,
        tail_block_sectors: int = 1,
    ) -> None:
        if tail_block_sectors <= 0:
            raise ValueError("tail_block_sectors must be positive")
        self.disk = disk
        self.block = block
        self.block_size = block_size
        self.sectors_per_block = block_size // disk.sector_bytes
        self.tail_block_sectors = tail_block_sectors
        self._sector = block * self.sectors_per_block
        #: True from :meth:`write` until the record is erased or a recovery
        #: consumes it.  The log erases an armed record before its next
        #: append (``VirtualLog._append_one``), or a later crash would
        #: recover to the stale tail the record names.
        self.armed = False

    def write(self, tail_block: int, seqno: int) -> Breakdown:
        """Persist the log tail (part of the firmware power-down sequence)."""
        self.armed = True
        body = _RECORD.pack(_MAGIC, tail_block, seqno, 0)[: -4]
        crc = zlib.crc32(body)
        payload = _RECORD.pack(_MAGIC, tail_block, seqno, crc)
        padded = payload + bytes(self.block_size - len(payload))
        return self.disk.write(
            self._sector, self.sectors_per_block, padded, charge_scsi=False
        )

    def read_raw(self, reader) -> Tuple[Optional[bytes], Breakdown]:
        """The record's home block as it sits on the media, through the
        owner's ``reader(sector, count, breakdown) -> Optional[bytes]``:
        ``None`` when that could not read it, which recovery reports
        differently from an absent record."""
        breakdown = Breakdown()
        raw = reader(self._sector, self.sectors_per_block, breakdown)
        return raw, breakdown

    def read(self, reader) -> Tuple[Optional[Tuple[int, int]], Breakdown]:
        """Read and validate the record; ``None`` when absent or corrupt."""
        raw, breakdown = self.read_raw(reader)
        return self.parse(raw), breakdown

    def parse(self, raw: Optional[bytes]) -> Optional[Tuple[int, int]]:
        """Validate raw record bytes; ``None`` when absent or corrupt."""
        if raw is None:
            return None
        if len(raw) < _RECORD.size:
            return None
        magic, tail, seqno, stored_crc = _RECORD.unpack(raw[: _RECORD.size])
        if magic != _MAGIC:
            return None
        body = raw[: _RECORD.size - 4]
        if zlib.crc32(body) != stored_crc:
            return None
        if tail < 0 or seqno < 0:
            return None
        if (tail + 1) * self.tail_block_sectors > self.disk.total_sectors:
            # A CRC-valid record naming a tail beyond the end of the disk
            # (e.g. written for a larger device, or firmware scribble that
            # happened to checksum) must not be trusted: reject it so
            # recovery falls back to the scan path instead of chasing an
            # unreadable block.
            return None
        return (tail, seqno)

    def clear(self) -> Breakdown:
        """Erase the record: before the first log append that follows a
        power-down, and at the end of every recovery."""
        self.armed = False
        blank = bytes(self.block_size)
        return self.disk.write(
            self._sector, self.sectors_per_block, blank, charge_scsi=False
        )


#: A run of sectors, ``(first_sector, count)``.
Run = Tuple[int, int]


def scan_records(
    disk: Disk,
    block_size: int = 4096,
    skip_sectors: int = 0,
    *,
    reader,
) -> Tuple[Dict[int, MapRecord], Dict[int, bytes], List[Run], Breakdown, int]:
    """Full-disk scan for *every* valid map record (the slow path).

    Reads the disk track by track (the cheapest sequential pattern) and
    parses every aligned record-sized unit for a valid map record.
    ``block_size`` is the *record* size (the VLD uses 512-byte map
    sectors); ``skip_sectors`` excludes the first N sectors of the disk
    (the power-down record's home).

    Every read goes through ``reader(sector, count, breakdown) ->
    Optional[bytes]``.  A track it cannot read is read again record by
    record, and only the records that stay unreadable are zero-filled, so
    one bad sector costs one record, not a whole track of them.

    Returns ``(records_by_block, bytes_by_block, zero_filled, breakdown,
    records_examined)``: each record found, the block it was parsed from
    (so that recovery's tree walk need not read it again), and the runs
    the scan zero-filled, in the order it met them.
    """
    breakdown = Breakdown()
    geometry = disk.geometry
    sectors_per_block = max(1, block_size // disk.sector_bytes)
    total_blocks = geometry.total_sectors // sectors_per_block
    # Blocks that lie wholly inside the skipped sectors are never looked at.
    first_block = skip_sectors // sectors_per_block
    found: Dict[int, MapRecord] = {}
    held: Dict[int, bytes] = {}
    zero_filled: List[Run] = []
    examined = 0
    # Record positions are absolute: record ``b`` occupies sectors
    # ``b*spb .. (b+1)*spb - 1``.  When the block size does not divide the
    # track size, records straddle track boundaries, so each track is
    # stitched onto the unconsumed tail of the one before and every whole
    # block on the disk is looked at exactly once.
    #
    # Looking at a block is a sieve, not a parse: one strided slice pulls
    # the first byte of every slot in the buffer, ``find`` walks the ones
    # that could start ``MAGIC``, and only slots that do start with it are
    # handed to ``MapRecord.unpack`` (which checks magic, CRC and entry
    # count as ever).  Host cost follows the records on the disk, not its
    # slots; ``examined`` is the number of slots the sieve covered.
    per_track = geometry.sectors_per_track
    magic_head = MAGIC[:1]
    pending = b""  # bytes read but not yet part of a whole block
    next_block = 0  # pending[0] is the first byte of this block
    for cylinder in range(geometry.num_cylinders):
        for head in range(geometry.tracks_per_cylinder):
            start = geometry.track_start(cylinder, head)
            raw = reader(start, per_track, breakdown)
            if raw is None:
                # Re-drive the track record by record (piece boundaries
                # count from the track's start).
                pieces: List[bytes] = []
                for offset in range(0, per_track, sectors_per_block):
                    sector = start + offset
                    count = min(sectors_per_block, per_track - offset)
                    piece = reader(sector, count, breakdown)
                    if piece is None:
                        zero_filled.append((sector, count))
                        piece = bytes(count * disk.sector_bytes)
                    pieces.append(piece)
                raw = b"".join(pieces)
            buffer = pending + raw if pending else raw
            base = next_block * block_size  # disk offset of buffer[0]
            end_block = min(total_blocks, (base + len(buffer)) // block_size)
            lo_block = max(next_block, first_block)
            if lo_block < end_block:
                examined += end_block - lo_block
                lo = lo_block * block_size - base
                heads = buffer[lo : end_block * block_size - base : block_size]
                view = memoryview(buffer)
                slot = heads.find(magic_head)
                while slot >= 0:
                    at = lo + slot * block_size
                    if buffer.startswith(MAGIC, at):
                        record = MapRecord.unpack(view[at : at + block_size])
                        if record is not None:
                            found[lo_block + slot] = record
                            held[lo_block + slot] = buffer[at : at + block_size]
                    slot = heads.find(magic_head, slot + 1)
            pending = buffer[end_block * block_size - base :]
            next_block = end_block
    return found, held, zero_filled, breakdown, examined


def _youngest(found: Dict[int, MapRecord]) -> Optional[int]:
    """The log tail among scanned records: the block of the one with the
    highest sequence number (the lowest such block, should two tie);
    ``None`` when there is none."""
    return max(found, key=lambda block: found[block].seqno, default=None)


@dataclass
class RecoveryOutcome:
    """What happened during a ``recover()`` call -- the one answer every
    recoverable device gives (VLD, VLFS, NVWal, sharded volume).

    :func:`recover_log` fills the locate/traverse fields (everything up to
    and including ``reconstructed``); the log's owner adds its own costs
    to ``breakdown`` and fills the media/quarantine counts; a device built
    over other recoverable devices returns their :func:`fold_outcomes`,
    plus -- for the NVM write-ahead tier -- the four replay facts.
    """

    used_power_down_record: bool
    scanned: bool
    records_read: int
    blocks_scanned: int = 0
    breakdown: Breakdown = field(default_factory=Breakdown)
    #: True when media faults forced pruning or fallback during recovery.
    degraded: bool = False
    #: True when the youngest-wins full-disk reconstruction ran (the
    #: escalation beyond the tail traversal).
    reconstructed: bool = False
    #: Sectors that stayed unreadable after retries during this recovery.
    media_errors: int = 0
    #: Quarantined sectors restored from the recovered table.
    quarantined_sectors: int = 0
    #: Stale (free) sectors retired *conservatively* because they stayed
    #: unreadable during recovery -- the defence against silently losing
    #: the quarantine when its youngest on-disk record is itself dead.
    conservatively_quarantined: int = 0
    #: Valid records found in an NVM log (that tier's commit point).
    replayed_records: int = 0
    #: Blocks written back to the backing store during NVM replay.
    replayed_blocks: int = 0
    #: Trimmed blocks forwarded to the backing store during NVM replay.
    replayed_trims: int = 0
    #: True when an NVM log scan stopped at a record that failed
    #: validation (a store torn by the crash), not at the clean tail.
    torn_tail: bool = False
    #: The outcomes this one was folded from, in order: a volume's
    #: shards, an NVWal's backing store.  Empty for a device's own.
    parts: List["RecoveryOutcome"] = field(default_factory=list)

    @property
    def elapsed(self) -> float:
        return self.breakdown.total

    @property
    def inner(self) -> Optional["RecoveryOutcome"]:
        """The one outcome beneath this one (an NVWal's backing store);
        ``None`` when there is none, or several."""
        return self.parts[0] if len(self.parts) == 1 else None


_FOLD_ANY = ("scanned", "degraded", "reconstructed", "torn_tail")
_FOLD_SUM = (
    "records_read", "blocks_scanned", "media_errors", "quarantined_sectors",
    "conservatively_quarantined", "replayed_records", "replayed_blocks",
    "replayed_trims",
)


def fold_outcomes(outcomes: Sequence[RecoveryOutcome]) -> RecoveryOutcome:
    """One outcome for a device recovered part by part: the power-down
    record was used only if *every* part used it, a flag is set if *any*
    part set it, counts and ``breakdown`` add up (the parts share one
    :class:`~repro.sim.clock.SimClock`, so the sum is the elapsed time).
    The folded outcomes stay reachable as ``parts``; folding none gives
    the outcome of a device with nothing to recover."""
    parts = list(outcomes)
    folded = RecoveryOutcome(
        used_power_down_record=bool(parts)
        and all(part.used_power_down_record for part in parts),
        scanned=False,
        records_read=0,
        parts=parts,
    )
    for part in parts:
        folded.breakdown.add(part.breakdown)
        for name in _FOLD_ANY:
            setattr(folded, name, getattr(folded, name) or getattr(part, name))
        for name in _FOLD_SUM:
            setattr(folded, name, getattr(folded, name) + getattr(part, name))
    return folded


def disk_reader(disk: Disk):
    """The plain recovery reader, for an owner with no fault tolerance of
    its own: one ``disk.read`` per call, on the drive's clock and with no
    command overhead, its cost added to the caller's ``breakdown``."""

    def reader(sector: int, count: int, breakdown: Breakdown) -> bytes:
        raw, cost = disk.read(sector, count, charge_scsi=False)
        breakdown.add(cost)
        return raw

    return reader


def recover_log(
    vlog: "VirtualLog",
    store: PowerDownStore,
    reader,
) -> Tuple[Optional[Dict[int, List[int]]], RecoveryOutcome, List[Run]]:
    """Locate the log tail and rebuild ``vlog`` from it (Section 3.2).

    Traverses from the tail the power-down record names; without a valid
    record -- or when that tail holds no readable map record -- from the
    youngest checksummed record a full scan finds.  A traversal that met
    an unreadable interior record is escalated to a youngest-wins
    reconstruction over *every* valid record on the disk, so one dead map
    sector costs one chunk's latest update at worst, never the tree
    behind it.  Every media read goes through the owner's one ``reader``,
    ``(sector, count, breakdown) -> Optional[bytes]`` (the VLD's retried
    read, or :func:`disk_reader`), ``None`` meaning the run stayed
    unreadable.

    The disk is scanned at most once.  The scan keeps the bytes of every
    record it found, and the traversal takes those from it at no media
    cost; every other block it reads through ``reader``, so a slot that
    stays dead still returns ``None`` and still degrades the traversal.
    The reconstruction takes the scan's records, plus any the traversal
    read that the scan did not find, and scans only when nothing has yet.

    A slot the scan zero-filled is read again once the pass is over, for
    up to :data:`SALVAGE_ROUNDS` rounds: it may hold the youngest record
    (a flaky tail), and one that reads joins the scan's records before
    the tail is chosen.

    Returns ``(chunks, outcome, dead_runs)``: ``chunks`` is ``None`` for a
    device that was never written; ``dead_runs`` are the runs that stayed
    unreadable in the traversal and the scan's slots that stayed
    unreadable when read again, in the order recovery met them (either
    may have held the record it needed, so any of them -- and any slot
    the scan zero-filled -- marks the outcome ``degraded``).  The owner
    still owes the log ``repair_reachability()`` (once its free map
    reflects the recovered state) and the record its closing ``clear()``.
    """
    raw, breakdown = store.read_raw(reader)
    record = store.parse(raw)
    # Recovery consumes the record: the owner's own appends (quarantine
    # table, reachability repair) do not erase it early; its closing
    # clear() does, once.
    store.armed = False
    outcome = RecoveryOutcome(
        used_power_down_record=record is not None,
        scanned=False,
        records_read=0,
        breakdown=breakdown,
        degraded=raw is None,
    )
    spb = vlog.sectors_per_block
    # Sectors up to the end of the record's home block hold no log.
    log_start = store._sector + store.sectors_per_block
    dead_runs: List[Run] = []
    #: The scan's records and the bytes it parsed them from, by block;
    #: ``None`` until the disk has been scanned.
    found: Optional[Dict[int, MapRecord]] = None
    held: Dict[int, bytes] = {}
    #: What the traversal read from the media, by block.
    fetched: Dict[int, bytes] = {}

    def walk_reader(sector: int, count: int, cost: Breakdown):
        block = sector // spb
        raw = held.get(block)
        if raw is None:
            raw = reader(sector, count, cost)
            if raw is not None:
                fetched[block] = raw
            elif sector >= log_start:
                dead_runs.append((sector, count))
                outcome.degraded = True
        return raw

    def scan() -> Dict[int, MapRecord]:
        nonlocal held
        records, held, zero_filled, cost, outcome.blocks_scanned = (
            scan_records(vlog.disk, vlog.block_size, log_start, reader=reader)
        )
        if zero_filled:
            outcome.degraded = True
        # A slot the scan could not read may hold the youngest record (a
        # flaky tail): read it again, now that the pass is over, for up
        # to SALVAGE_ROUNDS rounds of the owner's read.  One that reads
        # is no dead run -- its failed reads have queued it as a suspect
        # already -- and a whole record in it joins the scan's; one that
        # stays dead is a dead run.
        for sector, count in zero_filled:
            for _ in range(SALVAGE_ROUNDS):
                raw = reader(sector, count, cost)
                if raw is not None:
                    break
            if raw is None:
                dead_runs.append((sector, count))
            elif sector % spb == 0 and count == spb:
                record = MapRecord.unpack(raw)
                if record is not None:
                    records[sector // spb] = record
                    held[sector // spb] = raw
        breakdown.add(cost)
        return records

    chunks = None
    if record is not None:
        try:
            chunks, cost, outcome.records_read = vlog.recover_from_tail(
                record[0], walk_reader
            )
        except ValueError:
            # The recorded tail holds no readable map record (stale
            # record, dead media): scan.
            outcome.degraded = True
        else:
            breakdown.add(cost)
    if chunks is None:
        outcome.scanned = True
        found = scan()
        tail = _youngest(found)
        if tail is None:
            return None, outcome, dead_runs  # nothing was ever written
        # The tail comes out of the scan's bytes, so this cannot raise.
        chunks, cost, outcome.records_read = vlog.recover_from_tail(
            tail, walk_reader
        )
        breakdown.add(cost)
    if vlog.last_recovery_degraded:
        # An interior record was unreadable: the pruned traversal may
        # have lost whole subtrees.
        outcome.degraded = outcome.reconstructed = True
        records = scan() if found is None else found
        for block, raw in fetched.items():
            if block not in records:
                read = MapRecord.unpack(raw)
                if read is not None:
                    records[block] = read
        chunks, outcome.records_read = vlog.recover_from_records(records)
    if record is not None:
        # The record names the sequence number the log had reached, which
        # may lie past every record reachable from the tail it names.
        vlog.next_seqno = max(vlog.next_seqno, record[1] + 1)
    return chunks, outcome, dead_runs
