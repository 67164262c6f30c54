"""The exhaustive tree traversal: the reference the recovery differential
test compares :meth:`repro.vlog.virtual_log.VirtualLog.recover_from_tail`
against.

This is the body ``recover_from_tail`` had before the traversal learned
to stop at superseded records (DESIGN.md section 10): every intact record
reachable from the tail is expanded, superseded versions included, so
the reads grow with the write history.  Moved here verbatim (``self``
became the ``vlog`` argument) because nothing in ``src/`` calls it.
:func:`install` puts it on one log instance, so a recovery pipeline that
calls ``vlog.recover_from_tail`` runs it unchanged, and
:func:`recover_both` recovers a device and a fork of it both ways.
"""

import copy
from heapq import heappop, heappush
from types import MethodType
from typing import Dict, List, Optional, Tuple

from repro.sim.stats import Breakdown
from repro.vlog.entries import MapRecord
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


def install(vlog: VirtualLog) -> VirtualLog:
    """Make ``vlog``'s recoveries traverse with the reference."""
    vlog.recover_from_tail = MethodType(reference_recover_from_tail, vlog)
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


def _recover_noting_install(owner, state):
    """``owner.recover()``, noting ``state(owner)`` as the owner starts
    its reachability repair: by then the traversal has installed the log
    and the owner has rebuilt its map and free space from it."""
    vlog = owner.vlog
    repair = vlog.repair_reachability
    installed = []

    def noting_repair():
        installed.append(state(owner))
        return repair()

    vlog.repair_reachability = noting_repair
    try:
        outcome = owner.recover()
    finally:
        del vlog.repair_reachability
    return outcome, installed


def recover_both(device, state=vld_state):
    """Recover ``device``, and a fork of it with the reference traversal;
    the two must agree.  Returns both outcomes, the device's first.

    Both must install the same state.  The new traversal reads no more
    records, and ``recovered_committed_txns`` may only shrink (a commit
    record reached only through a superseded record names a transaction
    with no live member left).  The repair that follows places any
    relocation near wherever the head stopped, which moves with the
    number of records read: once it has relocated something, only what
    placement cannot change must still agree."""
    fork = copy.deepcopy(device)
    install(fork.vlog)
    relocations = device.vlog.relocations
    expected, expected_installed = _recover_noting_install(fork, state)
    outcome, installed = _recover_noting_install(device, state)
    assert installed == expected_installed
    assert device.vlog.relocations == fork.vlog.relocations
    if device.vlog.relocations == relocations:
        assert state(device) == state(fork)
    else:
        assert _placed_anywhere(state(device)) == _placed_anywhere(state(fork))
    assert outcome.records_read <= expected.records_read
    assert (
        device.vlog.recovered_committed_txns
        <= fork.vlog.recovered_committed_txns
    )
    return outcome, expected
