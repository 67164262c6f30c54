"""The tree traversals the recovery differential tests compare
:meth:`repro.vlog.virtual_log.VirtualLog.recover_from_tail` against.

* :func:`reference_recover_from_tail` is the body ``recover_from_tail``
  had before the traversal learned to stop at superseded records
  (DESIGN.md section 10): every intact record reachable from the tail is
  expanded, superseded versions included, so the reads grow with the
  write history.
* :func:`pointer_order_recover_from_tail` is the body it had next: it
  stops at superseded records, and reads a record's children in pointer
  order, wherever the head is.

Both moved here verbatim (``self`` became the ``vlog`` argument) because
nothing in ``src/`` calls them.  :func:`install` and
:func:`install_pointer_order` put one on a log instance, so a recovery
pipeline that calls ``vlog.recover_from_tail`` runs it unchanged, and
:func:`recover_both` recovers a device and two forks of it, one each
way.
"""

import copy
from heapq import heappop, heappush
from types import MethodType
from typing import Dict, List, Optional, Set, Tuple

from repro.sim.stats import Breakdown
from repro.vlog.entries import COMMIT_CHUNK_BASE, MapRecord
from repro.vlog.recovery import scan_records
from repro.vlog.virtual_log import VirtualLog


def reference_recover_from_tail(
    vlog: VirtualLog,
    tail_block: int,
    reader,
) -> Tuple[Dict[int, List[int]], Breakdown, int]:
    """Rebuild chunk contents by traversing the tree from ``tail_block``."""
    self = vlog
    breakdown = Breakdown()
    self.last_recovery_degraded = False
    spb = self.sectors_per_block
    unpack = MapRecord.unpack

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
    # and exactly once, so every record is expanded exactly once.
    records: Dict[int, MapRecord] = {tail_block: first}
    heap: List[Tuple[int, int]] = [(-first.seqno, tail_block)]
    while heap:
        _, block = heappop(heap)
        record = records[block]
        for pointer in record.pointers():
            if pointer in records:
                continue
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


def pointer_order_recover_from_tail(
    vlog: VirtualLog,
    tail_block: int,
    reader,
) -> Tuple[Dict[int, List[int]], Breakdown, int]:
    """Rebuild chunk contents by traversing the tree from ``tail_block``."""
    self = vlog
    breakdown = Breakdown()
    self.last_recovery_degraded = False
    spb = self.sectors_per_block
    unpack = MapRecord.unpack

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
        for pointer in pointers:
            if pointer in records:
                continue
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


def install(vlog: VirtualLog) -> VirtualLog:
    """Make ``vlog``'s recoveries traverse with the exhaustive reference."""
    vlog.recover_from_tail = MethodType(reference_recover_from_tail, vlog)
    return vlog


def install_pointer_order(vlog: VirtualLog) -> VirtualLog:
    """Make ``vlog``'s recoveries traverse in pointer order."""
    vlog.recover_from_tail = MethodType(pointer_order_recover_from_tail, vlog)
    return vlog


def _log_state(vlog) -> tuple:
    return (
        {
            block: (node.chunk_id, node.seqno, node.targets, node.txn_id,
                    node.superseded)
            for block, node in vlog._nodes.items()
        },
        vlog.tail,
        vlog.next_seqno,
        vlog.last_txn_seen,
    )


def _freemap_state(freemap) -> tuple:
    return (list(freemap._masks), freemap.quarantined_sectors())


def vld_state(vld) -> dict:
    """What a VLD's recovery installs."""
    return {
        "log": _log_state(vld.vlog),
        "map": sorted(vld.imap.items()),
        "quarantine": sorted(vld.resilience.quarantine.sectors),
        "free": _freemap_state(vld.freemap),
    }


def vlfs_state(fs) -> dict:
    """What a VLFS's recovery installs."""
    imap = fs.imap
    return {
        "log": _log_state(fs.vlog),
        "map": {inum: imap.get(inum) for inum in imap.live_inums()},
        "free": _freemap_state(fs.freemap),
    }


def _placed_anywhere(state: dict) -> dict:
    """``state`` without what depends on where a record was placed."""
    nodes, _tail, next_seqno, last_txn_seen = state["log"]
    unplaced = {key: value for key, value in state.items() if key != "free"}
    unplaced["log"] = (
        sorted(
            (chunk_id, seqno, txn_id, superseded)
            for chunk_id, seqno, _targets, txn_id, superseded in nodes.values()
        ),
        next_seqno,
        last_txn_seen,
    )
    return unplaced


class _Noted:
    """What :func:`_recover_noting` saw of one recovery."""

    def __init__(self) -> None:
        #: ``state(owner)`` as the owner started its reachability repair.
        self.installed: list = []
        #: The blocks of the records each install was handed.
        self.record_sets: List[List[int]] = []
        #: Per traversal, the blocks it read through ``Disk.read``.
        self.walk_reads: List[List[int]] = []


def _recover_noting(owner, state) -> Tuple[object, _Noted]:
    """``owner.recover()``, noting ``state(owner)`` as the owner starts
    its reachability repair (by then the traversal has installed the log
    and the owner has rebuilt its map and free space from it), the
    record set every install is handed, and the media reads of every
    traversal."""
    vlog = owner.vlog
    disk = vlog.disk
    spb = vlog.sectors_per_block
    repair = vlog.repair_reachability
    install_records = vlog._install_recovered
    walk = vlog.recover_from_tail
    installed_walk = vars(vlog).get("recover_from_tail")
    read = disk.read
    noted = _Noted()
    reads: Optional[List[int]] = None

    def noting_repair():
        noted.installed.append(state(owner))
        return repair()

    def noting_install(records):
        noted.record_sets.append(sorted(records))
        return install_records(records)

    def noting_walk(tail_block, reader):
        nonlocal reads
        reads = []
        noted.walk_reads.append(reads)
        try:
            return walk(tail_block, reader)
        finally:
            reads = None

    def noting_read(sector, count, *args, **kwargs):
        if reads is not None:
            reads.append(sector // spb)
        return read(sector, count, *args, **kwargs)

    vlog.repair_reachability = noting_repair
    vlog._install_recovered = noting_install
    vlog.recover_from_tail = noting_walk
    disk.read = noting_read
    try:
        outcome = owner.recover()
    finally:
        del vlog.repair_reachability, vlog._install_recovered, disk.read
        if installed_walk is None:
            del vlog.recover_from_tail
        else:
            vlog.recover_from_tail = installed_walk
    return outcome, noted


def _records_on_media(owner) -> Set[int]:
    """The blocks of every valid map record a scan of ``owner``'s disk
    would find now, read without touching the clock."""
    vlog, store = owner.vlog, owner.power_store
    disk = vlog.disk

    def peek(sector, count, _breakdown):
        return disk.peek(sector, count)

    found, _held, _zero_filled, _cost, _examined = scan_records(
        disk,
        vlog.block_size,
        store._sector + store.sectors_per_block,
        reader=peek,
    )
    return set(found)


def recover_both(device, state=vld_state):
    """Recover ``device``, a fork of it with the exhaustive reference
    traversal and a fork with the pointer-order one; the three must
    agree.  Returns the device's outcome and the exhaustive fork's.

    Against the pointer-order walk the access-time one must read the
    same records and install the same state.  After a scan, it may read
    no block the scan found from the media: the scan's bytes serve it.

    Against the exhaustive walk, both must install the same state.  The
    new traversal reads no more records, and ``recovered_committed_txns``
    may only shrink (a commit record reached only through a superseded
    record names a transaction with no live member left).

    The repair that follows places any relocation near wherever the head
    stopped, which moves with the records read and the order they were
    read in: once it has relocated something, only what placement cannot
    change must still agree."""
    fork = copy.deepcopy(device)
    install(fork.vlog)
    in_order = copy.deepcopy(device)
    install_pointer_order(in_order.vlog)
    relocations = device.vlog.relocations
    on_media = _records_on_media(device)
    expected, expected_noted = _recover_noting(fork, state)
    pointer_order, pointer_order_noted = _recover_noting(in_order, state)
    outcome, noted = _recover_noting(device, state)

    assert noted.record_sets == pointer_order_noted.record_sets
    assert outcome.records_read == pointer_order.records_read
    assert noted.installed == pointer_order_noted.installed
    if outcome.scanned and noted.walk_reads:  # a scan, then a walk
        assert not on_media.intersection(noted.walk_reads[-1])

    assert noted.installed == expected_noted.installed
    for other in (fork, in_order):
        assert device.vlog.relocations == other.vlog.relocations
        if device.vlog.relocations == relocations:
            assert state(device) == state(other)
        else:
            assert _placed_anywhere(state(device)) == _placed_anywhere(
                state(other)
            )
    assert outcome.records_read <= expected.records_read
    assert (
        device.vlog.recovered_committed_txns
        <= fork.vlog.recovered_committed_txns
    )
    return outcome, expected
