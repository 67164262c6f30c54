"""The NVM write-ahead tier: absorb sync writes, destage at idle.

:class:`NVWal` wraps any :class:`~repro.blockdev.interface.BlockDevice`
and turns every synchronous write into an appended, CRC-chained record in
a byte-addressable :class:`~repro.blockdev.nvm.NVMDevice` log.  The
acknowledgement point is the NVM *flush* -- microseconds -- instead of
the backing store's media write; dirty blocks are served back from the
tier (read-your-writes) and written to the backing store during idle
time, through an :class:`~repro.sched.idle.IdleManager` worker chain
whose last worker hands the remaining budget to the backing device's own
idle machinery (the VLD's scrubber and compactor keep their slots).

Two-tier commit point
---------------------

A write is durable the moment its record is inside the NVM persistence
domain; the backing store's own commit point (the VLD's map-chunk
append) only matters for blocks already destaged.  On recovery the NVM
log is scanned *first* -- epoch tag, per-record CRC, and a strictly
sequential seqno chain identify the valid prefix, so a store torn by the
crash (or anything after it) is discarded exactly like the virtual log's
own torn tail.  The backing store then runs its own ``recover()`` (a
VLD's is :func:`~repro.vlog.recovery.recover_log`: the tree walk from the
power-down record's tail, else from the youngest record one scan finds),
and finally the surviving NVM records are replayed onto it and the log
is reset.
Replayed writes are idempotent: a record that was already destaged
before the crash rewrites the same bytes.

The record append and the superblock's epoch bump both go through
:meth:`NVWal._persist`: each is one persistence event (``"nvm-record"``,
``"nvm-superblock"``) for a :class:`~repro.blockdev.interpose.FaultPlane`
on the NVM, which may drop the power before, inside or after it.

Log format (offsets in NVM bytes)::

    [0, 64)   superblock: magic, epoch, crc
    [64, ...) records, appended contiguously:
                magic, epoch, seqno, lba, count, op, crc | payload

Truncation is wholesale: once every dirty block has destaged, the epoch
is bumped and the superblock rewritten, which invalidates every old
record at once (their epoch tags no longer match).  There is no ring
arithmetic to recover through; a full log destages synchronously (the
backpressure a real bounded WAL applies).

Destage costs what it destages: dirty blocks go down in ascending runs of
neighbours, and the walk that finds the runs is lazy -- a run is found,
and its payloads read and joined, only when the destage loop has decided
to write it -- so an idle grant that admits three runs before its
deadline pays host time for three, however many thousand blocks the tier
holds.
"""

from __future__ import annotations

import struct
import zlib
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.blockdev.interface import BlockDevice
from repro.blockdev.nvm import NVMDevice, NVMSpec, NVM_SPECS
from repro.sched.idle import IdleManager
from repro.sim.clock import SimClock
from repro.sim.metrics import LatencyHistogram
from repro.sim.stats import Breakdown
from repro.vlog.recovery import RecoveryOutcome, fold_outcomes

_SB_MAGIC = b"NVWALSB1"
_SB = struct.Struct("<8sII")  # magic, epoch, crc
#: First record offset; the superblock owns everything below it.
_DATA_START = 64

_REC_MAGIC = 0x4E564C47  # "NVLG"
_REC = struct.Struct("<IIqqiBI")  # magic, epoch, seqno, lba, count, op, crc
#: The header less its trailing CRC field, and that field.
_REC_BODY = struct.Struct(_REC.format[:-1])
_REC_CRC = struct.Struct("<I")

_OP_WRITE = 0
_OP_TRIM = 1


class NVWal(BlockDevice):
    """A transparent write-ahead tier in front of a block device.

    Args:
        inner: The backing store (VLD, regular disk, anything).
        spec: The stable-memory part (:data:`~repro.blockdev.nvm.NVM_SPECS`).
        clock: The backing store's clock, for callers that name it;
            the tier always runs on ``inner.clock`` and refuses another.
    """

    #: Writes longer than this bypass the tier straight to the backing
    #: store -- the WAL accelerates small synchronous writes, not
    #: streaming transfers.
    absorb_max_blocks = 64
    #: Largest contiguous run one destage write sends down (the
    #: budget-check granularity during idle).
    destage_run_blocks = 16

    def __init__(
        self,
        inner: BlockDevice,
        spec: Optional[NVMSpec] = None,
        clock: Optional[SimClock] = None,
    ) -> None:
        self.inner = inner
        self.clock = inner.clock
        if clock is not None and clock is not self.clock:
            raise ValueError(
                "the tier runs on its backing store's clock; "
                "clock= names a different one"
            )
        self.spec = spec if spec is not None else NVM_SPECS["nvdimm"]
        min_capacity = _DATA_START + _REC.size + self.block_size
        if self.spec.capacity_bytes < min_capacity:
            raise ValueError(
                f"NVM capacity {self.spec.capacity_bytes} cannot hold even "
                f"one block record ({min_capacity} bytes)"
            )
        self.nvm = NVMDevice(self.spec, self.clock)
        # Volatile tier state, rebuilt from the log by recover().
        self._dirty: Dict[int, bytes] = {}
        self._trimmed: Set[int] = set()
        self._epoch = 1
        self._seq = 0
        self._tail = _DATA_START
        # Counters and the ack histogram.
        self.absorbed_writes = 0
        self.bypassed_writes = 0
        self.destaged_blocks = 0
        self.pressure_destages = 0
        self.log_resets = 0
        self.ack_times = LatencyHistogram()
        self.nvm.format(0, self._superblock())
        # The idle chain: destage first (free tier capacity, and give the
        # backing store real data to compact), then hand whatever budget
        # remains to the backing device's own idle machinery.
        self.idle_manager = IdleManager(self.clock)
        self.idle_manager.register("nvm-destage", self._idle_destage)
        self.idle_manager.register(
            "backing", self._idle_inner, needs_time=False
        )

    # -- BlockDevice surface -------------------------------------------

    @property
    def block_size(self) -> int:  # type: ignore[override]
        return self.inner.block_size

    @property
    def num_blocks(self) -> int:  # type: ignore[override]
        return self.inner.num_blocks

    def __getattr__(self, name: str):
        if name == "inner":  # guard: __init__ not yet run
            raise AttributeError(name)
        return getattr(self.inner, name)

    # -- the log -------------------------------------------------------

    def _superblock(self) -> bytes:
        body = _SB.pack(_SB_MAGIC, self._epoch, 0)[:-4]
        crc = zlib.crc32(body) & 0xFFFFFFFF
        return _SB.pack(_SB_MAGIC, self._epoch, crc)

    def _read_superblock(self) -> Tuple[Optional[int], Breakdown]:
        raw, cost = self.nvm.load(0, _SB.size)
        magic, epoch, stored = _SB.unpack(raw)
        if magic != _SB_MAGIC:
            return None, cost
        if zlib.crc32(raw[:-4]) & 0xFFFFFFFF != stored:
            return None, cost
        return epoch, cost

    def _record_bytes(self, op: int, lba: int, count: int,
                      payload: bytes) -> bytes:
        # The CRC covers the header (less its own field) and the payload,
        # chained through ``crc32``'s running value: the two are joined
        # once, into the record, not a second time to be checksummed.
        body = _REC_BODY.pack(
            _REC_MAGIC, self._epoch, self._seq, lba, count, op
        )
        crc = zlib.crc32(payload, zlib.crc32(body)) & 0xFFFFFFFF
        return b"".join((body, _REC_CRC.pack(crc), payload))

    def _persist(self, kind: str, offset: int, data: bytes,
                 total: Breakdown, **context) -> None:
        """Store and flush ``data`` at ``offset``, charging ``total``: one
        ``kind`` event.  If the power drops at it, the prefix the NVM's
        fault plane names persists and the power-loss fault rises."""
        faults = self.nvm.faults
        keep = None if faults is None else faults.persists(kind, len(data))
        if keep is not None:
            if keep:
                self.nvm.store(offset, data[:keep])
                self.nvm.flush()
            raise faults.power_lost(
                kind, f"offset {offset}, {len(data)} bytes", **context
            )
        total.add(self.nvm.store(offset, data))
        total.add(self.nvm.flush())

    def _reset_log(self) -> Breakdown:
        """Invalidate every record at once by bumping the epoch."""
        self._epoch += 1
        self._seq = 0
        self._tail = _DATA_START
        self.log_resets += 1
        cost = Breakdown()
        self._persist("nvm-superblock", 0, self._superblock(), cost)
        return cost

    def _append(self, op: int, lba: int, count: int,
                payload: bytes) -> Breakdown:
        """Append one record and flush it into the persistence domain --
        the tier's commit point, the ``"nvm-record"`` event."""
        total = Breakdown()
        record_len = _REC.size + len(payload)
        if self._tail + record_len > self.nvm.capacity_bytes:
            # Backpressure: the bounded log is full; destage everything
            # synchronously and start a fresh epoch before absorbing.
            self.pressure_destages += 1
            total.add(self._destage(None))
        # Built after any reset: the record must carry the live epoch/seqno.
        record = self._record_bytes(op, lba, count, payload)
        self._persist(
            "nvm-record", self._tail, record, total,
            op="write" if op == _OP_WRITE else "trim", lba=lba, count=count,
        )
        self._tail += len(record)
        self._seq += 1
        return total

    # -- writes --------------------------------------------------------

    def write_block(self, lba: int, data: Optional[bytes] = None) -> Breakdown:
        return self.write_blocks(lba, 1, data)

    def write_blocks(
        self, lba: int, count: int, data: Optional[bytes] = None
    ) -> Breakdown:
        self.check_lba(lba, count)
        data = self.check_data(data, count)
        record_len = _REC.size + count * self.block_size
        if (
            count > self.absorb_max_blocks
            or _DATA_START + record_len > self.nvm.capacity_bytes
        ):
            return self._write_through(lba, count, data)
        cost = self._append(_OP_WRITE, lba, count, data)
        bs = self.block_size
        for i in range(count):
            block = lba + i
            self._dirty[block] = data[i * bs : (i + 1) * bs]
            self._trimmed.discard(block)
        self.absorbed_writes += 1
        self.ack_times.record(cost.total)
        return cost

    def _write_through(self, lba: int, count: int, data: bytes) -> Breakdown:
        """Bypass for writes the tier does not absorb.  Any tier state
        overlapping the range must drain first: stale dirty blocks would
        otherwise destage (or replay) *over* the newer bypass data."""
        total = Breakdown()
        if any(
            lba + i in self._dirty or lba + i in self._trimmed
            for i in range(count)
        ):
            total.add(self._destage(None))
        self.bypassed_writes += 1
        total.add(self.inner.write_blocks(lba, count, data))
        return total

    def write_partial(self, lba: int, offset: int, data: bytes) -> Breakdown:
        """Read-modify-write through the tier: the WAL absorbs whole
        blocks, so a fragment write costs one block read (tier or
        backing) plus one absorbed block."""
        self.check_partial(lba, offset, data)
        total = Breakdown()
        if lba in self._dirty:
            current = self._dirty[lba]
            _, cost = self.nvm.load(0, len(current))
            total.add(cost)
        elif lba in self._trimmed:
            current = bytes(self.block_size)
        else:
            current, cost = self.inner.read_block(lba)
            total.add(cost)
        patched = current[:offset] + data + current[offset + len(data):]
        total.add(self.write_blocks(lba, 1, patched))
        return total

    def trim(self, lba: int, count: int = 1) -> Breakdown:
        """Log a trim record so a post-crash replay cannot resurrect the
        trimmed blocks; the backing store's trim runs at destage."""
        self.check_lba(lba, count)
        cost = self._append(_OP_TRIM, lba, count, b"")
        for i in range(count):
            block = lba + i
            self._dirty.pop(block, None)
            self._trimmed.add(block)
        return cost

    # -- reads ---------------------------------------------------------

    def _load_dirty(self, lba: int) -> Tuple[bytes, Breakdown]:
        data = self._dirty[lba]
        _, cost = self.nvm.load(0, len(data))
        return data, cost

    def read_block(self, lba: int) -> Tuple[bytes, Breakdown]:
        self.check_lba(lba)
        if lba in self._dirty:
            return self._load_dirty(lba)
        if lba in self._trimmed:
            _, cost = self.nvm.load(0, 0)
            return bytes(self.block_size), cost
        return self.inner.read_block(lba)

    def read_blocks(self, lba: int, count: int) -> Tuple[bytes, Breakdown]:
        self.check_lba(lba, count)
        if not any(
            lba + i in self._dirty or lba + i in self._trimmed
            for i in range(count)
        ):
            return self.inner.read_blocks(lba, count)
        pieces: List[bytes] = []
        total = Breakdown()
        run_start: Optional[int] = None
        for block in range(lba, lba + count + 1):
            tiered = block < lba + count and (
                block in self._dirty or block in self._trimmed
            )
            if not tiered and block < lba + count:
                if run_start is None:
                    run_start = block
                continue
            if run_start is not None:
                data, cost = self.inner.read_blocks(
                    run_start, block - run_start
                )
                pieces.append(data)
                total.add(cost)
                run_start = None
            if block < lba + count:
                if block in self._dirty:
                    data, cost = self._load_dirty(block)
                else:
                    _, cost = self.nvm.load(0, 0)
                    data = bytes(self.block_size)
                pieces.append(data)
                total.add(cost)
        return b"".join(pieces), total

    # -- destage -------------------------------------------------------

    def _trim_runs(self) -> List[Tuple[int, int]]:
        runs: List[Tuple[int, int]] = []
        for block in sorted(self._trimmed):
            if runs and block == runs[-1][0] + runs[-1][1]:
                runs[-1] = (runs[-1][0], runs[-1][1] + 1)
            else:
                runs.append((block, 1))
        return runs

    def _dirty_runs(self, cap: Optional[int]) -> Iterator[Tuple[int, int]]:
        """``(first block, blocks)`` of each run of neighbouring dirty
        blocks, ascending, no run longer than ``cap`` blocks -- found as
        the consumer asks for them, so a destage that stops at its
        deadline has walked only the runs it wrote.  The consumer may pop
        the blocks of a run it has been handed while iterating."""
        blocks = sorted(self._dirty)
        total = len(blocks)
        i = 0
        while i < total:
            first = blocks[i]
            j = i + 1
            while (
                j < total
                and blocks[j] == first + (j - i)
                and (cap is None or j - i < cap)
            ):
                j += 1
            yield first, j - i
            i = j

    def _destage(self, deadline: Optional[float]) -> Breakdown:
        """Write tier state back to the backing store; with a deadline,
        stop between runs once the clock passes it.  A fully drained
        tier resets the log (wholesale truncation)."""
        total = Breakdown()
        for block, count in self._trim_runs():
            if deadline is not None and self.clock.now >= deadline:
                break
            total.add(self.inner.trim(block, count))
            for i in range(count):
                self._trimmed.discard(block + i)
        if not self._trimmed:
            dirty = self._dirty
            for block, count in self._dirty_runs(self.destage_run_blocks):
                if deadline is not None and self.clock.now >= deadline:
                    break
                # A run's payloads are read and joined only once it is
                # certain to go down: destage costs what it destages.
                data = b"".join(
                    [dirty[b] for b in range(block, block + count)]
                )
                total.add(self.inner.write_blocks(block, count, data))
                self.destaged_blocks += count
                for i in range(count):
                    dirty.pop(block + i, None)
        if not self._dirty and not self._trimmed and self._seq:
            # Truncate only what the backing store holds durably: a
            # write-back store acknowledges a destage write once queued.
            total.add(self.inner.flush())
            total.add(self._reset_log())
        return total

    def destage_all(self) -> Breakdown:
        """Drain the whole tier synchronously (shutdown, or a test)."""
        return self._destage(None)

    # -- idle ----------------------------------------------------------

    def _idle_destage(self, budget: float) -> Optional[Breakdown]:
        if not (self._dirty or self._trimmed):
            return None
        return self._destage(self.clock.now + budget)

    def _idle_inner(self, budget: float) -> Optional[Breakdown]:
        self.inner.idle(max(0.0, budget))
        return None

    def idle(self, seconds: float) -> None:
        self.idle_manager.grant(seconds)

    # -- shutdown, crash, recovery -------------------------------------

    def flush(self) -> Breakdown:
        # Absorbed writes are durable already; bypassed ones only below.
        return self.inner.flush()

    def power_down(self) -> Breakdown:
        """Orderly shutdown: drain the tier, then the backing store's own
        power-down sequence.  A clean stop leaves an empty log."""
        total = self.destage_all()
        total.add(self.inner.power_down())
        return total

    def crash(self) -> None:
        """Power loss: stores outside the NVM persistence domain are
        gone, all volatile tier state is gone, and the backing store
        crashes too.  Only :meth:`recover` may run next."""
        self.nvm.crash()
        self._dirty = {}
        self._trimmed = set()
        self.inner.crash()

    def _scan_log(self) -> Tuple[
        List[Tuple[int, int, int, bytes]], bool, Breakdown
    ]:
        """Walk the NVM log: superblock epoch, then records while the
        (magic, epoch, seqno-chain, CRC) validation holds.  Returns
        ``(records, torn_tail, cost)`` with records as ``(op, lba,
        count, payload)`` in append order."""
        total = Breakdown()
        epoch, cost = self._read_superblock()
        total.add(cost)
        records: List[Tuple[int, int, int, bytes]] = []
        torn = False
        if epoch is None:
            # No valid superblock: a fresh part (all zeros) or one whose
            # superblock store itself tore.  Either way there is nothing
            # to replay.
            return records, torn, total
        self._epoch = epoch
        offset = _DATA_START
        expected_seq = 0
        capacity = self.nvm.capacity_bytes
        bs = self.block_size
        while offset + _REC.size <= capacity:
            raw, cost = self.nvm.load(offset, _REC.size)
            total.add(cost)
            magic, epoch_tag, seqno, lba, count, op, stored = _REC.unpack(raw)
            if magic != _REC_MAGIC or epoch_tag != self._epoch:
                break
            if seqno != expected_seq:
                torn = True
                break
            payload_len = count * bs if op == _OP_WRITE else 0
            if (
                count <= 0
                or op not in (_OP_WRITE, _OP_TRIM)
                or lba < 0
                or lba + count > self.num_blocks
                or offset + _REC.size + payload_len > capacity
            ):
                torn = True
                break
            payload, cost = self.nvm.load(offset + _REC.size, payload_len)
            total.add(cost)
            body = _REC.pack(magic, epoch_tag, seqno, lba, count, op, 0)[:-4]
            if zlib.crc32(body + payload) & 0xFFFFFFFF != stored:
                torn = True
                break
            records.append((op, lba, count, payload))
            offset += _REC.size + payload_len
            expected_seq += 1
        self._tail = offset
        self._seq = expected_seq
        return records, torn, total

    def recover(self) -> RecoveryOutcome:
        """Two-tier recovery: establish the NVM commit point (scan the
        log's valid prefix), run the backing store's own recovery
        pipeline, replay the surviving records onto it, reset the log.
        Returns the backing store's outcome folded with this tier's scan
        and replay cost and its four replay facts; ``inner`` is the
        backing store's own."""
        records, torn, scan_cost = self._scan_log()
        # Rebuild the tier's view of the surviving records in order; the
        # final state per block is what replays (later records win).
        self._dirty = {}
        self._trimmed = set()
        bs = self.block_size
        for op, lba, count, payload in records:
            if op == _OP_WRITE:
                for i in range(count):
                    block = lba + i
                    self._dirty[block] = payload[i * bs : (i + 1) * bs]
                    self._trimmed.discard(block)
            else:
                for i in range(count):
                    self._dirty.pop(lba + i, None)
                    self._trimmed.add(lba + i)
        outcome = fold_outcomes([self.inner.recover()])
        outcome.breakdown.add(scan_cost)
        outcome.replayed_records += len(records)
        outcome.replayed_blocks += len(self._dirty)
        outcome.replayed_trims += len(self._trimmed)
        outcome.torn_tail = outcome.torn_tail or torn
        outcome.breakdown.add(self.destage_all())
        return outcome

    # -- reporting -----------------------------------------------------

    @property
    def dirty_blocks(self) -> int:
        return len(self._dirty)

    def __repr__(self) -> str:  # pragma: no cover - repr convenience
        return (
            f"NVWal({self.spec.name}, dirty={len(self._dirty)}, "
            f"absorbed={self.absorbed_writes})"
        )
