"""Atomic multi-block transactions on the Virtual Log Disk.

Section 3.2 promises that the virtual log "serves as a base mechanism upon
which efficient transactions can be built" and notes that a transaction
whose map entries span map sectors "may need" multiple map-sector writes.
This module builds the mechanism out:

* a transaction's data blocks are eagerly written first (their old copies
  are *retained*);
* the affected map chunks are appended as transaction *members*
  (``txn_id`` tagged), with their superseded predecessors kept in the log;
* a tiny **commit record** — an ordinary log entry in a reserved chunk-id
  range — makes the transaction durable in one final eager write;
* only then are the superseded map records and old data blocks recycled.

Recovery applies a member chunk version only when its commit record is
found; otherwise the predecessor version wins, giving all-or-nothing
semantics across any number of blocks with no write-ahead log, no
update-in-place, and no NVRAM.  Commit records are recycled by slot reuse
once every member of their transaction has been superseded.

Every phase is a run of physical writes, so a power loss inside a commit
is an ordinary :class:`~repro.blockdev.interpose.FaultPlane` crash point
(a ``sector-run`` event): the tests drop the power before the first
member record or before the commit record, and recover.

One transaction may be open at a time (the simulation is synchronous,
matching a single drive processor).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.sim.stats import Breakdown
from repro.vlog.vld import VirtualLogDisk


class Transaction:
    """A batch of logical-block writes applied atomically."""

    def __init__(self, vld: "TransactionalVLD") -> None:
        self._vld = vld
        self._writes: Dict[int, bytes] = {}
        self.committed = False
        self.aborted = False

    def write(self, lba: int, data: Optional[bytes] = None) -> None:
        """Buffer one block write (last write to an lba wins)."""
        if self.committed or self.aborted:
            raise RuntimeError("transaction already finished")
        self._vld.check_lba(lba, 1)
        self._writes[lba] = self._vld.check_data(data, 1)

    def commit(self) -> Breakdown:
        """Apply every buffered write atomically."""
        if self.committed or self.aborted:
            raise RuntimeError("transaction already finished")
        breakdown = self._vld._commit_transaction(self._writes)
        self.committed = True
        return breakdown

    def abort(self) -> None:
        """Discard the buffered writes (nothing has touched the disk)."""
        self._writes.clear()
        self.aborted = True

    def __enter__(self) -> "Transaction":
        return self

    def __exit__(self, exc_type, _exc, _tb) -> bool:
        if exc_type is None and not self.committed and not self.aborted:
            self.commit()
        elif exc_type is not None and not self.committed:
            self.aborted = True
        return False


class TransactionalVLD(VirtualLogDisk):
    """A Virtual Log Disk with atomic multi-block writes."""

    def begin(self) -> Transaction:
        """Open a transaction."""
        return Transaction(self)

    def write_atomic(
        self, writes: List[Tuple[int, Optional[bytes]]]
    ) -> Breakdown:
        """Convenience: apply ``[(lba, data), ...]`` atomically."""
        txn = self.begin()
        for lba, data in writes:
            txn.write(lba, data)
        return txn.commit()

    # ------------------------------------------------------------------

    def _commit_transaction(self, writes: Dict[int, bytes]) -> Breakdown:
        breakdown = self._charge_scsi()
        if not writes:
            return breakdown
        txn_id = self.vlog.begin_txn()
        # Phase 1: eager-write the new data; keep the old copies.
        displaced: List[int] = []
        touched_chunks: Dict[int, None] = {}
        for lba in sorted(writes):
            new_block = self.allocator.allocate()
            breakdown.add(
                self.disk.write(
                    new_block * self.sectors_per_block,
                    self.sectors_per_block,
                    writes[lba],
                    charge_scsi=False,
                )
            )
            old = self.imap.set(lba, new_block)
            self.reverse[new_block] = lba
            if old is not None:
                displaced.append(old)
            touched_chunks[self.imap.chunk_id_of(lba)] = None
        # Phase 2: the member map records (predecessors retained).
        superseded: List[int] = []
        for chunk_id in touched_chunks:
            cost, old_record = self.vlog.append_txn_member(
                chunk_id, self.imap.chunk_entries(chunk_id), txn_id
            )
            breakdown.add(cost)
            if old_record is not None:
                superseded.append(old_record)
        # Phase 3: the commit record -- the transaction's durability point.
        breakdown.add(self.vlog.commit_txn(txn_id, superseded))
        # Phase 4: recycle the displaced data blocks.
        for old in displaced:
            self.reverse.pop(old, None)
            self.allocator.free_block(old)
        self.logical_writes += len(writes)
        return breakdown
