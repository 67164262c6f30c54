"""The write path pinned end to end (DESIGN.md section 19).

``test_placement_sequence_is_pinned`` hashes where single-block zero-page
writes land and when.  This pin covers everything a logical write is
allowed to decide: one seeded run on a 70 %-full VLD mixes non-zero
single-block overwrites, data-less writes, 2-7-block ``write_blocks``
(a third of them forced across a 112-entry chunk boundary),
``write_partial``, ``trim``, reads, one committed and one aborted
transaction, a ``power_down()`` that service outlives and ``idle(0.25)``
every 256 ops, and hashes every call's four ``Breakdown`` components, the
clock and the placements bit for bit; then the counters of the disk, both
allocators, the log and the compactor, the whole media image (so every
packed record byte) and the checksum store; then all of it again after
``crash()`` + ``recover()``.

The goldens were recorded at the commit *before* the write-path cut
(record image built once, one body per disk write, per-cylinder hole
search), under ``PYTHONHASHSEED`` 0, 1 and random.  A speed-up of this
path may change host time only.
"""

from __future__ import annotations

import random

import pytest

from repro.disk.disk import Disk
from repro.disk.specs import ST19101
from repro.vlog.transactions import TransactionalVLD
from tests._media import op_counts
from tests._pins import running_pin, sha256_hex

OPS = 1600
IDLE_EVERY = 256
IDLE_SECONDS = 0.25
UTILIZATION = 0.70

#: sha256 per queue configuration, recorded at the parent commit and
#: re-recorded on purpose, under PYTHONHASHSEED 0, 1 and random, when
#: recovery stopped expanding superseded map records (it reads fewer) and
#: ``abort_txn`` began re-homing what the kept version alone reaches
#: before writing the record that outranks it; again when the recovery
#: walk began reading a record's children in access-time order.
_GOLDEN_WRITE_PATH_SHA256 = {
    (1, "fifo"): (
        "1b1a6f4c4590c6559965bac9fd3af5263bf9b4912d6e64e3e3ef72d05f6d62e6"
    ),
    (4, "satf"): (
        "28dce8109723b53ca44873052299b04243bf90575ddcd473f5dc15d68721a119"
    ),
}


def _page(x: int, nbytes: int) -> bytes:
    return bytes([1 + x % 255]) * nbytes


def _note(digest, vld, breakdown, lbas=()) -> None:
    digest.update(
        " ".join(
            [
                breakdown.scsi.hex(),
                breakdown.transfer.hex(),
                breakdown.locate.hex(),
                breakdown.other.hex(),
                vld.disk.clock.now.hex(),
                *(str(vld.imap.get(lba)) for lba in lbas),
            ]
        ).encode()
        + b"\n"
    )


def _note_state(digest, vld) -> None:
    """Counters, the media image and the checksum store."""
    disk = vld.disk
    counters = op_counts(disk)
    counters["busy_time"] = counters["busy_time"].hex()
    compactor = vld.compactor
    digest.update(
        repr(
            (
                sorted(counters.items()),
                vld.allocator.allocations,
                vld.allocator.fallbacks,
                vld.map_allocator.allocations,
                vld.map_allocator.fallbacks,
                vld.vlog.appends,
                vld.vlog.relocations,
                vld.vlog.next_seqno,
                vld.vlog.tail,
                compactor.blocks_moved,
                compactor.tracks_compacted,
                vld.freemap.free_sectors,
                disk.head_cylinder,
                disk.head_head,
                disk.clock.now.hex(),
                sha256_hex(disk.peek(0, disk.total_sectors)),
                list(vld.resilience.checksums.items()),
                sorted(vld.imap.items()),
            )
        ).encode()
    )


def _aborted_transaction(vld, rng, live, digest) -> None:
    """Two member records of a transaction that never commits, undone
    through ``VirtualLog.abort_txn`` (the VLD facade has no abort of a
    transaction that reached the log, so the test drives the log the way
    ``_commit_transaction`` does up to the member appends)."""
    spb = vld.sectors_per_block
    lbas = sorted({rng.choice(live), rng.choice(live) // 2})
    txn_id = vld.vlog.begin_txn()
    before = {lba: vld.imap.get(lba) for lba in lbas}
    placed = []
    chunks = {}
    for lba in lbas:
        block = vld.allocator.allocate()
        _note(
            digest,
            vld,
            vld.disk.write(
                block * spb, spb, _page(lba, vld.block_size), charge_scsi=False
            ),
        )
        vld.imap.set(lba, block)
        placed.append(block)
        chunks[vld.imap.chunk_id_of(lba)] = None
    for chunk_id in chunks:
        cost, _old = vld.vlog.append_txn_member(
            chunk_id, vld.imap.chunk_entries(chunk_id), txn_id
        )
        _note(digest, vld, cost)

    def restore(chunk_id):
        for lba, old in before.items():
            if vld.imap.chunk_id_of(lba) == chunk_id:
                if old is None:
                    vld.imap.clear(lba)
                else:
                    vld.imap.set(lba, old)
        return vld.imap.chunk_entries(chunk_id)

    _note(digest, vld, vld.vlog.abort_txn(txn_id, restore), lbas)
    vld.allocator.free_blocks(placed)
    vld.vlog.check_invariants()


def _run(queue_depth: int, sched: str) -> str:
    rng = random.Random(17)
    disk = Disk(ST19101)
    vld = TransactionalVLD(disk, queue_depth=queue_depth, sched=sched)
    block_size = vld.block_size
    capacity = vld.imap.chunk_capacity
    assert capacity == 112
    live = rng.sample(
        range(vld.num_blocks), int(UTILIZATION * vld.physical_blocks)
    )
    for lba in sorted(live):
        vld.write_block(lba, _page(lba, block_size))
    digest = running_pin()
    for issued in range(1, OPS + 1):
        roll = rng.random()
        if issued == 700:
            writes = [
                (lba, _page(lba + issued, block_size))
                for lba in sorted({rng.choice(live) for _ in range(5)})
            ]
            writes.append((capacity * 3 + 1, None))
            _note(
                digest, vld, vld.write_atomic(writes), [w[0] for w in writes]
            )
        elif issued == 1100:
            _aborted_transaction(vld, rng, live, digest)
        elif issued == 1300:
            # An orderly stop that is not followed by a crash: the next
            # append must erase the armed power-down record first.
            _note(digest, vld, vld.power_down())
            assert vld.power_store.armed
        elif roll < 0.55:
            lba = rng.choice(live)
            cost = vld.write_block(lba, _page(rng.randrange(255), block_size))
            _note(digest, vld, cost, [lba])
        elif roll < 0.60:
            lba = rng.choice(live)
            _note(digest, vld, vld.write_block(lba), [lba])
        elif roll < 0.75:
            count = rng.randint(2, 7)
            if rng.random() < 0.34:
                boundary = capacity * rng.randrange(1, vld.imap.num_chunks)
                lba = boundary - rng.randint(1, count - 1)
            else:
                lba = rng.randrange(vld.num_blocks - count)
            data = b"".join(
                _page(rng.randrange(255), block_size) for _ in range(count)
            )
            cost = vld.write_blocks(lba, count, data)
            _note(digest, vld, cost, range(lba, lba + count))
        elif roll < 0.83:
            lba = rng.choice(live)
            offset = disk.sector_bytes * rng.randrange(vld.sectors_per_block)
            length = rng.randint(1, block_size - offset)
            cost = vld.write_partial(
                lba, offset, _page(rng.randrange(255), length)
            )
            _note(digest, vld, cost, [lba])
        elif roll < 0.88:
            count = rng.randint(1, 3)
            lba = rng.randrange(vld.num_blocks - count)
            _note(digest, vld, vld.trim(lba, count), range(lba, lba + count))
        else:
            count = rng.choice((1, 1, 1, 4))
            lba = rng.randrange(vld.num_blocks - count)
            data, cost = vld.read_blocks(lba, count)
            digest.update(running_pin(data).digest())
            _note(digest, vld, cost)
        if issued % IDLE_EVERY == 0:
            vld.idle(IDLE_SECONDS)
            _note(digest, vld, vld.scheduler.take_breakdown())
    compactor = vld.compactor
    assert compactor.blocks_moved > 0 and compactor.tracks_compacted > 0
    assert vld.allocator.fallbacks > 0 and vld.vlog.relocations > 0
    _note_state(digest, vld)
    vld.crash()
    outcome = vld.recover()
    _note(digest, vld, outcome.breakdown)
    digest.update(
        repr((outcome.scanned, outcome.records_read)).encode()
    )
    _note_state(digest, vld)
    # The recovered device keeps writing where the pinned one would.
    for lba in live[:64]:
        _note(
            digest, vld, vld.write_block(lba, _page(lba, block_size)), [lba]
        )
    _note_state(digest, vld)
    vld.vlog.check_invariants()
    return digest.hexdigest()


@pytest.mark.parametrize("queue_depth, sched", sorted(_GOLDEN_WRITE_PATH_SHA256))
def test_write_path_is_pinned(queue_depth, sched):
    assert _run(queue_depth, sched) == _GOLDEN_WRITE_PATH_SHA256[
        (queue_depth, sched)
    ]
