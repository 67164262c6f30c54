"""Recovery after recovery: histories that crash, recover and go on.

A recovery rebuilds the in-memory graph the next recovery depends on, so
a defect in the rebuild loses acknowledged writes only one crash later.
Each history is seeded random 4 KB writes on a small VLD, ``idle`` on a
quarter of the steps (the compactor relocates records) and a crash on
15 % of them, half behind an orderly ``power_down()``; after every
``recover()`` each acknowledged block is read back.  Each recovery also
runs on a fork with the exhaustive reference traversal, and the two must
agree (``reference_recovery.recover_both``).  The transactional
shape adds atomic multi-block writes, a third of them cut short by a
fault-plane power loss after their data or after their member records.

Two defects, one per shape (DESIGN.md section 10):

* the rebuilt graph kept an on-disk pointer whenever its target block
  was live, even when a younger record had reused the block: a live
  record looked reachable in memory but was not on the media, so
  reachability repair skipped it and the next recovery lost it;
* ``next_seqno`` restarted past the effective versions only, below
  uncommitted members still on the media, so a later scan took one of
  them for the tail and lost the writes made since.
"""

import random

import pytest

from repro.disk.disk import Disk
from repro.disk.specs import ST19101
from repro.vlog.entries import entries_per_chunk
from repro.vlog.transactions import TransactionalVLD
from repro.vlog.vld import VirtualLogDisk
from tests._commit_crash import crash_commit
from tests.vlog.reference_recovery import recover_both

BS = 4096
STEPS = 100
IDLE_S = 0.05


def _blk(tag: int) -> bytes:
    return bytes([tag]) * BS


def run_history(seed, transactions=False, recover=None) -> int:
    """Play one seeded history; returns how many acknowledged blocks
    failed to read back after a recovery.  ``recover(vld)`` runs each
    recovery (default ``vld.recover()``)."""
    rng = random.Random(seed)
    cls = TransactionalVLD if transactions else VirtualLogDisk
    vld = cls(Disk(ST19101, num_cylinders=4))
    recover = recover or (lambda device: device.recover())
    acked = {}
    lost = 0

    def cycle():
        nonlocal lost
        if rng.random() < 0.5:
            vld.power_down()
        vld.crash()
        recover(vld)
        for lba, tag in list(acked.items()):
            if vld.read_block(lba)[0] != _blk(tag):
                lost += 1
                del acked[lba]

    for _ in range(STEPS):
        draw = rng.random()
        if draw < 0.25:
            vld.idle(rng.uniform(0, IDLE_S))
        elif draw < 0.40:
            cycle()
        elif transactions and draw < 0.55:
            writes = {
                rng.randrange(vld.num_blocks): rng.randrange(1, 256)
                for _ in range(rng.randrange(2, 5))
            }
            crash_point = rng.choice([None, "after_data", "after_members"])
            txn = vld.begin()
            for lba, tag in writes.items():
                txn.write(lba, _blk(tag))
            if crash_point is None:
                txn.commit()
                acked.update(writes)
            else:
                crash_commit(txn, crash_point)
                cycle()
        else:
            lba = rng.randrange(vld.num_blocks)
            tag = rng.randrange(1, 256)
            vld.write_block(lba, _blk(tag))
            acked[lba] = tag
    return lost


#: Seeds whose history lost blocks (1-14 each) to the stale edge.
STALE_EDGE_SEEDS = (36, 44, 46, 54, 61)
#: Seeds whose transactional history lost blocks to a reused seqno
#: with the stale-edge fix alone.
SEQNO_REUSE_SEEDS = (3, 15, 22, 34, 35, 39)


@pytest.mark.parametrize("seed", STALE_EDGE_SEEDS)
def test_a_recovered_graph_keeps_no_stale_edge(seed):
    assert run_history(seed, recover=recover_both) == 0


@pytest.mark.parametrize("seed", SEQNO_REUSE_SEEDS)
def test_sequence_numbers_resume_past_uncommitted_members(seed):
    assert run_history(seed, transactions=True, recover=recover_both) == 0


def test_a_write_after_an_uncommitted_transaction_survives_a_scan():
    vld = TransactionalVLD(Disk(ST19101, num_cylinders=2))
    per_chunk = entries_per_chunk(vld.map_record_bytes)
    lbas = (0, per_chunk, 2 * per_chunk)  # three map chunks
    for lba in lbas:
        vld.write_block(lba, _blk(1))
    txn = vld.begin()
    txn.write(lbas[0], _blk(2))
    txn.write(lbas[1], _blk(2))
    crash_commit(txn, "after_members")
    members = [n.seqno for n in vld.vlog._nodes.values() if n.txn_id]
    assert len(members) == 2
    vld.power_down()
    vld.crash()
    vld.recover()
    # The members stay on the media: no new record may reuse their seqnos.
    assert vld.vlog.next_seqno > max(members)
    vld.write_block(lbas[2], _blk(3))
    vld.crash()
    assert vld.recover().scanned
    assert [vld.read_block(lba)[0] for lba in lbas] == [
        _blk(1), _blk(1), _blk(3)
    ]
