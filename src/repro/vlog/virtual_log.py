"""The virtual log proper: an eagerly-written, tree-threaded log.

Section 3.2 of the paper: map entries cannot carry *forward* pointers
(eager writing makes the next entry's location unpredictable), so entries
are chained *backwards* from a log tail.  Overwriting an entry would strand
the chain, so the chain is generalised to a tree (Figure 3b): each new tail
points both at the previous root and "around" the entry it overwrites,
letting the overwritten block be recycled without recopying live entries.

Formally, the invariant this module maintains on the graph of *live*
records (the newest version of each map chunk) is:

    every live record except the tail has at least one in-edge
    from a live record.

Because every edge points from a newer record to a strictly older one, the
invariant implies every live record is reachable from the tail -- chase
in-edges newer-ward and you must arrive at the unique newest record.  On
overwrite of record ``B``, targets of ``B`` whose last live in-edge died
("orphans") are re-homed onto the new root's pointer slots; when more
orphans exist than slots, the overflow chunks are themselves relocated
(appended afresh), which restores their reachability trivially, and a
relocated chunk's own append may overflow in turn.  Neither is rare: an
8-append history overflows and a 14-append history cascades
(``tests/vlog/test_virtual_log.py``'s two smallest-known witnesses).
The recovery traversal is youngest-first by sequence number, pruning
pointers that land on recycled or stale blocks, exactly as Section 3.2
describes ("obsolete log entries can be recognized as such because their
updated versions are younger and traversed earlier") -- and it does not
expand an obsolete entry, so it reads about the live map, not the
history behind it.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.disk.disk import Disk
from repro.sim.stats import Breakdown
from repro.vlog.allocator import EagerAllocator
from repro.vlog.entries import COMMIT_CHUNK_BASE, MapRecord, pack_record


class _Node:
    """In-memory shadow of one live on-disk record."""

    __slots__ = ("chunk_id", "seqno", "targets", "txn_id", "superseded")

    def __init__(
        self, chunk_id: int, seqno: int, targets: List[int], txn_id: int = 0
    ) -> None:
        self.chunk_id = chunk_id
        self.seqno = seqno
        #: Live records this one points at (its out-edges).
        self.targets = targets
        #: transaction this record is a member of (0 = standalone).
        self.txn_id = txn_id
        #: True while a newer (uncommitted) version exists; the record stays
        #: in the graph so recovery can fall back to it if the transaction
        #: never commits.
        self.superseded = False


class VirtualLog:
    """Maintains the on-disk virtual log of indirection-map chunks.

    Args:
        disk: The underlying simulated disk (accessed as the drive's own
            processor: no SCSI charge).
        allocator: Eager-writing allocator used to place each record.
        chunk_provider: Callable returning the *current* entry list for a
            chunk -- used when a chunk must be rewritten for reachability or
            by the compactor.
        block_size: Physical block size in bytes (one record per block).
    """

    #: Pointer slots in a record besides ``prev_root``.
    _BYPASS_SLOTS = 2

    def __init__(
        self,
        disk: Disk,
        allocator: EagerAllocator,
        chunk_provider: Callable[[int], Sequence[int]],
        block_size: int = 4096,
    ) -> None:
        self.disk = disk
        self.allocator = allocator
        self.chunk_provider = chunk_provider
        self.block_size = block_size
        self.sectors_per_block = block_size // disk.sector_bytes
        self.tail: Optional[int] = None
        self.next_seqno = 1
        #: The owner's :class:`~repro.vlog.recovery.PowerDownStore`, when
        #: it keeps one: a record still armed when the log next changes is
        #: erased first (see :meth:`_append_one`).
        self.power_store = None
        #: phys block -> live record shadow
        self._nodes: Dict[int, _Node] = {}
        #: chunk id -> phys block of its live record
        self._chunk_location: Dict[int, int] = {}
        #: phys block -> blocks of live records pointing at it.  Kept exact:
        #: when a record is deleted, its in- and out-edges are purged, so a
        #: recycled block never inherits stale edges.
        self._in_edges: Dict[int, Set[int]] = {}
        #: blocks freed by overwrites; owner recycles them (mark_free)
        self.appends = 0
        self.relocations = 0
        #: transaction bookkeeping: live member-record count per txn,
        #: commit-record slot per txn, and retired slots free for reuse.
        self._txn_live_members: Dict[int, int] = {}
        self._txn_slot: Dict[int, int] = {}
        #: Inverse of ``_txn_slot`` (commit slot -> txn), maintained at
        #: every mutation so the append path answers commit-slot payloads
        #: without rebuilding the reversed dict per record.
        self._slot_txn: Dict[int, int] = {}
        self._free_commit_slots: List[int] = []
        self._next_commit_slot = COMMIT_CHUNK_BASE
        self.last_txn_seen = 0
        self.recovered_committed_txns: Set[int] = set()
        #: True when the last recovery traversal hit an unreadable record
        #: (media failure, not normal pruning) -- the caller should fall
        #: back to a full-disk reconstruction.
        self.last_recovery_degraded = False

    def reset_volatile(self) -> None:
        """Drop all in-memory state (a crash on a fresh device)."""
        self.tail = None
        self.next_seqno = 1
        self._nodes.clear()
        self._chunk_location.clear()
        self._in_edges.clear()
        self._txn_live_members.clear()
        self._txn_slot.clear()
        self._slot_txn.clear()
        self._free_commit_slots.clear()
        self._next_commit_slot = COMMIT_CHUNK_BASE
        self.recovered_committed_txns = set()
        self.last_recovery_degraded = False

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def location_of(self, chunk_id: int) -> Optional[int]:
        """Physical block currently holding a chunk's record, if any."""
        return self._chunk_location.get(chunk_id)

    def live_blocks(self) -> Set[int]:
        """Physical blocks occupied by live log records."""
        return set(self._nodes)

    def chunk_of_block(self, phys_block: int) -> Optional[int]:
        """Which chunk a live record block belongs to (None if not a record)."""
        node = self._nodes.get(phys_block)
        return node.chunk_id if node else None

    # ------------------------------------------------------------------
    # Appending (the one-disk-I/O map update of Section 3.2)
    # ------------------------------------------------------------------

    def _chunk_payload(self, chunk_id: int) -> Sequence[int]:
        """Current contents of a chunk (commit slots answer locally)."""
        if chunk_id >= COMMIT_CHUNK_BASE:
            txn = self._slot_txn.get(chunk_id)
            return [txn] if txn is not None else [0]
        return self.chunk_provider(chunk_id)

    def append(
        self, chunk_id: int, entries: Sequence[int], txn_id: int = 0
    ) -> Breakdown:
        """Write a new version of ``chunk_id``; returns the latency paid.

        Recycles the chunk's previous record block (if any) and any overflow
        relocations needed to preserve the reachability invariant.  With a
        nonzero ``txn_id`` the record is a transaction member; use
        :meth:`append_txn_member` for the deferred-recycle variant.
        """
        breakdown = Breakdown()
        # Safety valve: relocation cascades must converge long before this.
        budget = 4 * (len(self._chunk_location) + 2) - 1
        overflow = self._append_one(chunk_id, entries, breakdown, txn_id)
        if not overflow:
            return breakdown
        # More orphans than pointer slots: append the overflow
        # chunks afresh, last named first, each with the contents it had
        # when it was named; any of them may overflow in turn.
        worklist: List[Tuple[int, Sequence[int]]] = []
        while True:
            for orphan_chunk in overflow:
                self.relocations += 1
                worklist.append(
                    (orphan_chunk, self._chunk_payload(orphan_chunk))
                )
            if not worklist:
                return breakdown
            if budget <= 0:
                raise RuntimeError("virtual-log relocation cascade diverged")
            budget -= 1
            cid, payload = worklist.pop()
            overflow = self._append_one(cid, payload, breakdown)

    def relocate(self, chunk_id: int) -> Breakdown:
        """Rewrite a chunk's record elsewhere (used by the compactor)."""
        if chunk_id not in self._chunk_location:
            raise KeyError(f"chunk {chunk_id} has no live record")
        self.relocations += 1
        return self.append(chunk_id, self._chunk_payload(chunk_id))

    def _append_one(
        self,
        chunk_id: int,
        entries: Sequence[int],
        breakdown: Breakdown,
        txn_id: int = 0,
        keep_old: bool = False,
    ) -> List[int]:
        """Append one record; returns chunk ids needing relocation.

        ``keep_old`` defers recycling the superseded record: it stays in
        the graph (marked superseded) so that recovery can fall back to it
        while the enclosing transaction is not yet committed.
        """
        nodes = self._nodes
        in_edges = self._in_edges
        old_block = self._chunk_location.get(chunk_id)
        tail = self.tail
        # Pointer slots: prev_root, then bypasses around the overwritten
        # record -- its targets whose last live in-edge is about to
        # disappear ("orphans").  Orphans beyond the slots overflow.
        targets: List[int] = []
        if tail is not None and (keep_old or tail != old_block):
            targets.append(tail)
        overflow_chunks: List[int] = []
        if old_block is not None and not keep_old:
            for target in nodes[old_block].targets:
                parents = in_edges.get(target)
                if (
                    parents is not None
                    and len(parents) == 1
                    and old_block in parents
                ):
                    if len(targets) <= self._BYPASS_SLOTS:
                        targets.append(target)
                    else:
                        overflow_chunks.append(nodes[target].chunk_id)
        # The image is built (and its entry count validated) before
        # anything moves: a rejected record must cost no sector, no
        # sequence number and no allocation.
        filled = len(targets)
        seqno = self.next_seqno
        image = pack_record(
            self.block_size,
            chunk_id,
            seqno,
            entries,
            targets[0] if filled > 0 else None,
            targets[1] if filled > 1 else None,
            targets[2] if filled > 2 else None,
            txn_id,
        )
        store = self.power_store
        if store is not None and store.armed:
            # The protocol's erase step: a power-down record names the
            # tail as it was, so it goes before the log moves on -- or a
            # later crash would recover to the stale tail.  Before
            # ``allocate()``, because the clear moves the head.
            breakdown.add(store.clear())
        self.next_seqno = seqno + 1
        # Place and write the record near the head (no SCSI charge: this is
        # the drive's own processor at work).
        spb = self.sectors_per_block
        new_block = self.allocator.allocate(spb)
        breakdown.add(
            self.disk.write(new_block * spb, spb, image, charge_scsi=False)
        )
        # Update the in-memory graph: add the new node ...
        nodes[new_block] = _Node(chunk_id, seqno, targets, txn_id)
        for target in targets:
            parents = in_edges.get(target)
            if parents is None:
                in_edges[target] = {new_block}
            else:
                parents.add(new_block)
        self._chunk_location[chunk_id] = new_block
        self.tail = new_block
        self.appends += 1
        if txn_id:
            self._txn_live_members[txn_id] = (
                self._txn_live_members.get(txn_id, 0) + 1
            )
            self.last_txn_seen = max(self.last_txn_seen, txn_id)
        # ... then delete the overwritten one and recycle its block --
        # unless a transaction needs it to remain recoverable.
        if old_block is not None:
            if keep_old:
                nodes[old_block].superseded = True
            else:
                self._delete_node(old_block)
        return overflow_chunks

    # ------------------------------------------------------------------
    # Transactions (atomic multi-chunk updates, Section 3.2's promise)
    # ------------------------------------------------------------------

    def begin_txn(self) -> int:
        """Allocate a fresh transaction id."""
        self.last_txn_seen += 1
        return self.last_txn_seen

    def append_txn_member(
        self, chunk_id: int, entries: Sequence[int], txn_id: int
    ) -> Tuple[Breakdown, Optional[int]]:
        """Append a transaction member; the superseded record is *not*
        recycled yet.  Returns ``(cost, superseded_block_or_None)``."""
        if txn_id <= 0:
            raise ValueError("transaction ids are positive")
        old_block = self._chunk_location.get(chunk_id)
        breakdown = Breakdown()
        overflow = self._append_one(
            chunk_id, entries, breakdown, txn_id=txn_id, keep_old=True
        )
        assert not overflow  # keep_old never orphans anything
        return breakdown, old_block

    def commit_txn(
        self, txn_id: int, superseded: List[int]
    ) -> Breakdown:
        """Make a transaction durable: write its commit record, then
        recycle the superseded member predecessors."""
        if txn_id <= 0:
            raise ValueError("transaction ids are positive")
        slot = self._allocate_commit_slot()
        self._txn_slot[txn_id] = slot
        self._slot_txn[slot] = txn_id
        breakdown = self.append(slot, [txn_id])
        for block in superseded:
            if block in self._nodes:
                breakdown.add(self._delete_with_repair(block))
        return breakdown

    def abort_txn(self, txn_id: int, restore) -> Breakdown:
        """Undo an uncommitted transaction.

        ``restore(chunk_id)`` must return the chunk's *pre-transaction*
        contents; fresh standalone records supersede the uncommitted
        members (whose blocks recycle normally).
        """
        breakdown = Breakdown()
        members = [
            node.chunk_id
            for node in self._nodes.values()
            if node.txn_id == txn_id and not node.superseded
        ]
        for chunk_id in members:
            # The fresh record outranks the kept pre-transaction version,
            # so recovery stops expanding that version once it is written:
            # what only the kept version reaches is re-homed first.
            kept = [
                block
                for block, node in self._nodes.items()
                if node.superseded and node.chunk_id == chunk_id
            ]
            for block in kept:
                breakdown.add(self._rehome_orphans(block))
            breakdown.add(self.append(chunk_id, restore(chunk_id)))
            for block in kept:
                breakdown.add(self._delete_with_repair(block))
        # The superseded pre-transaction records are now stale duplicates
        # of their chunks; recycle them.
        stale = [
            block
            for block, node in self._nodes.items()
            if node.superseded and self._chunk_location.get(node.chunk_id) != block
        ]
        for block in stale:
            node = self._nodes.get(block)
            if node is not None and node.superseded:
                breakdown.add(self._delete_with_repair(block))
        return breakdown

    def _allocate_commit_slot(self) -> int:
        # Prefer retired slots (their transactions have no live members,
        # so superseding their record loses nothing).
        if self._free_commit_slots:
            return self._free_commit_slots.pop()
        slot = self._next_commit_slot
        self._next_commit_slot += 1
        return slot

    def _on_txn_member_deleted(self, txn_id: int) -> None:
        remaining = self._txn_live_members.get(txn_id, 0) - 1
        if remaining > 0:
            self._txn_live_members[txn_id] = remaining
            return
        self._txn_live_members.pop(txn_id, None)
        slot = self._txn_slot.pop(txn_id, None)
        if slot is not None:
            self._slot_txn.pop(slot, None)
            self._free_commit_slots.append(slot)

    def _rehome_orphans(self, block: int) -> Breakdown:
        """Relocate the chunks of the live records only ``block`` points
        at, while it still stands."""
        breakdown = Breakdown()
        for target in list(self._nodes[block].targets):
            target_node = self._nodes.get(target)
            if (
                target_node is not None
                and self._in_edges.get(target) == {block}
                and self._chunk_location.get(target_node.chunk_id) == target
            ):
                breakdown.add(
                    self.append(
                        target_node.chunk_id,
                        self._chunk_payload(target_node.chunk_id),
                    )
                )
        return breakdown

    def _delete_with_repair(self, block: int) -> Breakdown:
        """Delete a node outside the append path, re-homing any records it
        alone kept reachable by relocating their chunks."""
        breakdown = Breakdown()
        node = self._nodes.get(block)
        if node is None:
            return breakdown
        orphans = [
            target
            for target in node.targets
            if self._in_edges.get(target) == {block}
        ]
        self._delete_node(block)
        for orphan in orphans:
            orphan_node = self._nodes.get(orphan)
            if orphan_node is not None and orphan == self._chunk_location.get(
                orphan_node.chunk_id
            ):
                breakdown.add(
                    self.append(
                        orphan_node.chunk_id,
                        self._chunk_payload(orphan_node.chunk_id),
                    )
                )
            elif orphan_node is not None:
                # A superseded record lost its last edge; recycle it too.
                breakdown.add(self._delete_with_repair(orphan))
        return breakdown

    def _delete_node(self, block: int) -> None:
        node = self._nodes.pop(block)
        if node.txn_id:
            self._on_txn_member_deleted(node.txn_id)
        # Purge out-edges ...
        for target in node.targets:
            parents = self._in_edges.get(target)
            if parents is not None:
                parents.discard(block)
                if not parents:
                    del self._in_edges[target]
        # ... and in-edges: parents drop their (now dangling) pointer from
        # the in-memory view, so a future occupant of this block never
        # inherits it.  (On disk the pointer remains; recovery prunes it by
        # record validation and sequence-number ordering.)
        for parent in self._in_edges.pop(block, ()):  # type: ignore[arg-type]
            parent_node = self._nodes.get(parent)
            if parent_node is not None and block in parent_node.targets:
                parent_node.targets.remove(block)
        self.allocator.free_block(block, self.sectors_per_block)

    # ------------------------------------------------------------------
    # Recovery (Section 3.2's youngest-first tree traversal)
    # ------------------------------------------------------------------

    def recover_from_tail(
        self,
        tail_block: int,
        reader,
    ) -> Tuple[Dict[int, List[int]], Breakdown, int]:
        """Rebuild chunk contents by traversing the tree from ``tail_block``.

        Returns ``(chunks, breakdown, records_read)`` where ``chunks`` maps
        chunk id to its youngest entry list.  Also rebuilds this object's
        in-memory state; before normal operation resumes the owner owes
        the log :meth:`repair_reachability` (relocating chunks the pruned
        tree no longer reaches), once its free-space map reflects the
        recovered state -- earlier, the relocation writes could land on
        live data.

        Every record is read with ``reader(sector, count, breakdown) ->
        Optional[bytes]`` (the owner's recovery reader), which returns
        ``None`` for an unreadable run.  An unreadable *tail* raises
        ``ValueError`` (the caller falls back to scanning); an unreadable
        interior record merely prunes that edge and sets
        :attr:`last_recovery_degraded` so the caller can escalate to a
        full-disk reconstruction.

        A popped record's unread children are read cheapest first: they
        are priced from where the head is now, the cheapest is read, and
        the rest are priced again from there (pointer order breaks a
        tie).  Which records are read, and the order they are popped in,
        do not depend on it.
        """
        breakdown = Breakdown()
        self.last_recovery_degraded = False
        spb = self.sectors_per_block
        unpack = MapRecord.unpack
        disk = self.disk
        price = disk.mechanics.price_candidates

        def read_record(block: int) -> Optional[MapRecord]:
            raw = reader(block * spb, spb, breakdown)
            if raw is None:
                # Media failure (not normal pruning): remember it.
                self.last_recovery_degraded = True
                return None
            return unpack(raw)

        first = read_record(tail_block)
        if first is None:
            raise ValueError(f"block {tail_block} does not hold a map record")
        # Youngest first.  A block enters ``records`` and the heap together
        # and exactly once, so every record is popped exactly once -- and,
        # because children are older than their parents, in falling
        # sequence-number order.  A record whose chunk a younger record
        # already resolved is superseded: it is read but not expanded.
        # Nothing live is lost by that: at every write boundary each live
        # record has a chain of live parents back to the tail, popped
        # before any superseded version of its chunk.  Only a record sure
        # to have re-homed every orphan of the version it replaced
        # resolves its chunk: a standalone map or quarantine record with a
        # pointer slot to spare (a full one may have left an orphan to the
        # relocation written after it).  Transaction members and commit records
        # resolve nothing, so the version behind an uncommitted member is
        # still expanded.
        records: Dict[int, MapRecord] = {tail_block: first}
        heap: List[Tuple[int, int]] = [(-first.seqno, tail_block)]
        resolved: Set[int] = set()
        while heap:
            _, block = heappop(heap)
            record = records[block]
            chunk_id = record.chunk_id
            if chunk_id in resolved:
                continue
            pointers = record.pointers()
            if (
                not record.txn_id
                and chunk_id < COMMIT_CHUNK_BASE
                and len(pointers) <= self._BYPASS_SLOTS
            ):
                resolved.add(chunk_id)
            unread = [pointer for pointer in pointers if pointer not in records]
            while unread:
                if len(unread) > 1:
                    costs = price(
                        disk.clock.now,
                        disk.head_cylinder,
                        disk.head_head,
                        [pointer * spb for pointer in unread],
                    )
                    pointer = unread.pop(costs.index(min(costs)))
                else:
                    pointer = unread.pop()
                if pointer in records:
                    continue  # a duplicate pointer, read a moment ago
                child = read_record(pointer)
                if child is None:
                    continue  # recycled block: prune this edge
                if child.seqno >= record.seqno:
                    # A younger record reused this block; the edge is stale.
                    continue
                records[pointer] = child
                heappush(heap, (-child.seqno, pointer))

        map_chunks = self._install_recovered(records)
        return map_chunks, breakdown, len(records)

    def recover_from_records(
        self, records: Dict[int, MapRecord]
    ) -> Tuple[Dict[int, List[int]], int]:
        """Rebuild from *every* valid record found by a full-disk scan.

        The last-resort reconstruction when the tail traversal is degraded
        by unreadable records: threading is ignored entirely and the
        youngest valid version of each chunk wins, which is sound because
        sequence numbers are globally ordered and stale records are only
        recycled *after* their successor commits.  Returns
        ``(map_chunks, records_considered)``; the owner owes the same
        :meth:`repair_reachability` as after :meth:`recover_from_tail`.
        """
        map_chunks = self._install_recovered(dict(records))
        return map_chunks, len(records)

    def _install_recovered(
        self, records: Dict[int, MapRecord]
    ) -> Dict[int, List[int]]:
        """Select effective chunk versions and rebuild in-memory state."""
        candidates: Dict[int, List[Tuple[int, int]]] = {}
        committed: Set[int] = set()
        for block, record in records.items():
            candidates.setdefault(record.chunk_id, []).append(
                (record.seqno, block)
            )
            if record.is_commit and record.entries:
                committed.add(record.entries[0])
        # Effective youngest per chunk: skip versions belonging to
        # transactions whose commit record was never found -- the
        # all-or-nothing guarantee (Section 3.2's atomic writes).
        youngest: Dict[int, Tuple[int, int]] = {}
        chunks: Dict[int, List[int]] = {}
        for chunk_id, versions in candidates.items():
            for seqno, block in sorted(versions, reverse=True):
                record = records[block]
                if record.txn_id and record.txn_id not in committed:
                    continue  # uncommitted: fall back to an older version
                youngest[chunk_id] = (seqno, block)
                chunks[chunk_id] = list(record.entries)
                break

        self._rebuild_state(youngest, records)
        # Expose transaction outcomes to owners (for id reuse and space
        # reclamation of uncommitted data blocks).
        self.recovered_committed_txns = committed
        self.last_txn_seen = max(
            [self.last_txn_seen, *committed]
            + [r.txn_id for r in records.values()]
        )
        # Map-chunk contents only; commit records are internal.
        return {
            cid: payload
            for cid, payload in chunks.items()
            if cid < COMMIT_CHUNK_BASE
        }

    def _rebuild_state(
        self,
        youngest: Dict[int, Tuple[int, int]],
        records: Dict[int, MapRecord],
    ) -> None:
        """Reconstitute the in-memory graph from recovered records."""
        self._nodes.clear()
        self._chunk_location.clear()
        self._in_edges.clear()
        live_blocks = {block for _seq, block in youngest.values()}
        max_seqno = 0
        tail_block: Optional[int] = None
        self._txn_live_members.clear()
        self._txn_slot.clear()
        self._slot_txn.clear()
        for chunk_id, (seqno, block) in youngest.items():
            record = records[block]
            self._nodes[block] = _Node(
                chunk_id,
                seqno,
                # A pointer at a younger record is stale (its block was
                # reused after this record was written): the traversal
                # prunes it, and so must the graph, or a record the media
                # no longer reaches looks reachable to the repair.
                [
                    p
                    for p in record.pointers()
                    if p in live_blocks and records[p].seqno < seqno
                ],
                record.txn_id,
            )
            self._chunk_location[chunk_id] = block
            if record.txn_id:
                self._txn_live_members[record.txn_id] = (
                    self._txn_live_members.get(record.txn_id, 0) + 1
                )
            if record.is_commit and record.entries:
                self._txn_slot[record.entries[0]] = chunk_id
                self._slot_txn[chunk_id] = record.entries[0]
            if seqno > max_seqno:
                max_seqno = seqno
                tail_block = block
        # Commit slots whose transactions no longer have live members are
        # free for reuse.
        self._free_commit_slots = []
        for txn in [
            t
            for t in self._txn_slot
            if self._txn_live_members.get(t, 0) == 0
        ]:
            slot = self._txn_slot.pop(txn)
            self._slot_txn.pop(slot, None)
            self._free_commit_slots.append(slot)
        if self._nodes:
            commit_ids = [
                c for c in self._chunk_location if c >= COMMIT_CHUNK_BASE
            ]
            if commit_ids:
                self._next_commit_slot = max(commit_ids) + 1
        for block, node in self._nodes.items():
            for target in node.targets:
                self._in_edges.setdefault(target, set()).add(block)
        self.tail = tail_block
        # Past every record read, not just the effective ones: an
        # uncommitted member younger than the tail stays on the media, and
        # a reused sequence number would let a scan take it for the tail.
        self.next_seqno = 1 + max(
            (record.seqno for record in records.values()), default=0
        )
        # The tail may no longer dominate every live record (stale edges
        # were pruned); the owner's :meth:`repair_reachability` restores
        # that, after its free map knows which blocks hold live data.

    def repair_reachability(self) -> Breakdown:
        """Relocate any live records the tail no longer reaches, restoring
        the reachability invariant; returns the latency paid."""
        breakdown = Breakdown()
        # Oldest first.  A relocation stops the expansion of its chunk's
        # older versions, and what only those reach is older still: it is
        # relocated before them, so a crash inside the repair finds it.
        unreachable = sorted(
            self._unreachable_live_blocks(),
            key=lambda block: self._nodes[block].seqno,
        )
        for block in unreachable:
            node = self._nodes.get(block)
            if node is not None:
                breakdown.add(self.relocate(node.chunk_id))
        return breakdown

    def _unreachable_live_blocks(self) -> List[int]:
        """Live record blocks not reachable from the tail via live edges."""
        if self.tail is None:
            return []
        seen: Set[int] = set()
        stack = [self.tail]
        while stack:
            block = stack.pop()
            if block in seen:
                continue
            seen.add(block)
            stack.extend(
                t
                for t in self._nodes[block].targets
                if t not in seen and t in self._nodes
            )
        return [b for b in self._nodes if b not in seen]

    # ------------------------------------------------------------------
    # Invariant checking (used heavily by the test suite)
    # ------------------------------------------------------------------

    def invariant_violations(self) -> List[str]:
        """Every internal-consistency violation, as human-readable strings
        (empty means healthy).  The collecting form lets ``vlfsck`` report
        all problems at once instead of dying on the first."""
        problems: List[str] = []
        edges: Dict[int, Set[int]] = {}
        for block, node in self._nodes.items():
            if (
                not node.superseded
                and self._chunk_location.get(node.chunk_id) != block
            ):
                problems.append(
                    f"chunk {node.chunk_id} location desynchronised"
                )
            if len(node.targets) != len(set(node.targets)):
                problems.append(f"record {block} has duplicate out-edges")
            for target in node.targets:
                if target not in self._nodes:
                    problems.append(
                        f"record {block} holds dangling edge to {target}"
                    )
                else:
                    edges.setdefault(target, set()).add(block)
        if edges != self._in_edges:
            problems.append("in-edge sets desynchronised")
        for block, node in self._nodes.items():
            if block != self.tail and not self._in_edges.get(block):
                problems.append(f"live record {block} has no live in-edge")
        if self._nodes:
            if self.tail not in self._nodes:
                problems.append("tail must be a live record")
            else:
                tail_seqno = self._nodes[self.tail].seqno
                for block, node in self._nodes.items():
                    if block != self.tail and node.seqno >= tail_seqno:
                        problems.append(
                            f"record {block} is as young as the tail"
                        )
        if self.tail is None or self.tail in self._nodes:
            unreachable = self._unreachable_live_blocks()
            if unreachable:
                problems.append(
                    f"live records unreachable: {sorted(unreachable)}"
                )
        return problems

    def check_invariants(self) -> None:
        """Raise AssertionError when internal consistency is violated."""
        problems = self.invariant_violations()
        assert not problems, "; ".join(problems)
