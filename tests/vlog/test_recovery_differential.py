"""Differential test: the traversal that stops at superseded records
against the exhaustive one it replaced.

``reference_recovery.py`` is the body ``recover_from_tail`` had before
it learned to leave superseded records unexpanded.  Every recovery here
runs twice from the same crashed image -- on the device, and on a
``copy.deepcopy`` of it whose log traverses with the reference -- and
the two must install the same state: the indirection map, every live
record with its out-edges, the tail, ``next_seqno``, ``last_txn_seen``,
the quarantine table and the free map (see ``recover_both``).

The crashed images are every crash point of the crash sweep's two
workloads (a VLD and a VLFS, with and without the mid-run power-down),
and every crash point of a spread workload: atomic and single writes
over sixteen map chunks with the compactor at idle, where overwriting a
chunk's record orphans more live records than a record has bypass
slots, so an orphan waits for the relocation written after the
superseding record.  Then every crash point of an abort, and every
write of the recovery itself at spread crash points whose repair
relocates several records.  ``test_recovery_history.py`` recovers its
histories both ways too.
"""

import random

import pytest

from repro.blockdev.interpose import DeviceCrashed, FaultPlane
from repro.disk.disk import Disk
from repro.disk.specs import ST19101
from repro.vlog.entries import entries_per_chunk
from repro.vlog.transactions import TransactionalVLD
from repro.vlog.vld import VirtualLogDisk
from tests.vlog.reference_recovery import recover_both, vld_state, vlfs_state
from tests.vlog.test_crash_sweep import (
    _run_workload,
    _sweep_params,
    _VLDUnderTest,
    _VLFSUnderTest,
)

BS = 4096


def _check_crash_point(factory, state, crash_at, power_down_at):
    under_test = factory()
    FaultPlane(("sector-run", crash_at), "torn").install(under_test.disk)
    _run_workload(under_test, power_down_at)
    under_test.disk.faults = None
    device = under_test.device
    device.crash()
    recover_both(device, state)
    # And once more from the image the first recovery left.
    device.crash()
    recover_both(device, state)


@pytest.mark.parametrize(
    "crash_at,power_down_at", _sweep_params(_VLDUnderTest)
)
def test_vld_crash_points(crash_at, power_down_at):
    _check_crash_point(_VLDUnderTest, vld_state, crash_at, power_down_at)


@pytest.mark.parametrize(
    "crash_at,power_down_at", _sweep_params(_VLFSUnderTest)
)
def test_vlfs_crash_points(crash_at, power_down_at):
    _check_crash_point(_VLFSUnderTest, vlfs_state, crash_at, power_down_at)


SPREAD_CHUNKS = 16
SPREAD_STEPS = 60


def _spread_device():
    disk = Disk(ST19101, num_cylinders=4)
    return disk, TransactionalVLD(disk)


def run_spread(device, acked, in_flight) -> int:
    """The spread workload: every fifth step idles, every third writes
    two or three blocks atomically, the rest write one block; each block
    is one of two LBAs in one of ``SPREAD_CHUNKS`` map chunks.  Fills
    ``acked`` with what was acknowledged and ``in_flight`` with the write
    under way (emptied when the run completes).  Returns how many writes
    relocated a record before they returned."""
    rng = random.Random(1)
    per_chunk = entries_per_chunk(device.map_record_bytes)
    relocating_writes = 0
    for step in range(SPREAD_STEPS):
        if step % 5 == 4:
            device.idle(0.05)
            continue
        in_flight.clear()
        for _ in range(rng.randrange(2, 4) if step % 3 == 0 else 1):
            lba = rng.randrange(SPREAD_CHUNKS) * per_chunk + rng.randrange(2)
            in_flight[lba] = step + 1
        relocations = device.vlog.relocations
        if len(in_flight) == 1:
            [(lba, tag)] = in_flight.items()
            device.write_block(lba, bytes([tag]) * BS)
        else:
            device.write_atomic(
                [(lba, bytes([tag]) * BS) for lba, tag in in_flight.items()]
            )
        relocating_writes += device.vlog.relocations > relocations
        acked.update(in_flight)
    in_flight.clear()
    return relocating_writes


def _spread_write_count() -> int:
    disk, device = _spread_device()
    run_spread(device, {}, {})
    return disk.counters.writes


def test_the_spread_workload_overflows_a_records_bypass_slots():
    # Idle relocations happen between writes; these happen inside one.
    _disk, device = _spread_device()
    assert run_spread(device, {}, {}) >= 1


def _crashed_spread(crash_at):
    disk, device = _spread_device()
    FaultPlane(("sector-run", crash_at), "torn").install(disk)
    acked, in_flight = {}, {}
    with pytest.raises(DeviceCrashed):
        run_spread(device, acked, in_flight)
    disk.faults = None
    device.crash()
    return disk, device, acked, in_flight


@pytest.mark.parametrize("crash_at", range(1, _spread_write_count() + 1))
def test_spread_crash_points(crash_at):
    _disk, device, acked, in_flight = _crashed_spread(crash_at)

    def contents():
        return {
            lba: device.read_block(lba)[0]
            for lba in sorted({*acked, *in_flight})
        }

    recover_both(device)
    recovered = contents()
    old = {lba: bytes([acked[lba]]) * BS if lba in acked else bytes(BS)
           for lba in in_flight}
    new = {lba: bytes([tag]) * BS for lba, tag in in_flight.items()}
    landed = {lba: recovered[lba] for lba in in_flight}
    assert landed in (old, new), "the interrupted write is not atomic"
    for lba, tag in acked.items():
        if lba not in in_flight:
            assert recovered[lba] == bytes([tag]) * BS, f"lba {lba} lost"
    # A second crash finds what the first recovery left.
    device.crash()
    recover_both(device)
    assert contents() == recovered


#: Spread crash points whose recovery relocates several unreachable
#: records (members and commit records of interrupted transactions hide
#: them from the tail's live edges).  Before the repair went oldest
#: first, a crash between two of those relocations lost blocks: at 49
#: and 202 with the exhaustive traversal too, at 303 only with the new
#: one.
REPAIRING_POINTS = (49, 202, 303)


@pytest.mark.parametrize("crash_at", REPAIRING_POINTS)
def test_a_crash_inside_the_repair_loses_nothing(crash_at):
    disk, device, _acked, _in_flight = _crashed_spread(crash_at)
    relocations, writes = device.vlog.relocations, disk.counters.writes
    device.recover()
    assert device.vlog.relocations - relocations >= 2
    for repair_crash_at in range(1, disk.counters.writes - writes + 1):
        disk, device, acked, in_flight = _crashed_spread(crash_at)
        FaultPlane(("sector-run", repair_crash_at), "torn").install(disk)
        with pytest.raises(DeviceCrashed):
            device.recover()
        disk.faults = None
        device.crash()
        recover_both(device)
        for lba, tag in acked.items():
            if lba not in in_flight:
                assert device.read_block(lba)[0] == bytes([tag]) * BS, (
                    f"lba {lba} lost to a crash after {repair_crash_at} "
                    "writes of the recovery"
                )


def _aborting_vld():
    """A VLD whose transaction reached the log and is about to be undone
    through ``VirtualLog.abort_txn``: the member for chunk 0 keeps chunk
    0's old record, and that record alone points at chunk 1's.  Returns
    ``(disk, vld, abort)``."""
    disk = Disk(ST19101, num_cylinders=2)
    vld = VirtualLogDisk(disk)
    per_chunk = entries_per_chunk(vld.map_record_bytes)
    vld.write_block(per_chunk, bytes([1]) * BS)
    vld.write_block(0, bytes([2]) * BS)
    old_block = vld.imap.get(0)
    txn_id = vld.vlog.begin_txn()
    spb = vld.sectors_per_block
    block = vld.allocator.allocate()
    disk.write(block * spb, spb, bytes([3]) * BS, charge_scsi=False)
    vld.imap.set(0, block)
    vld.vlog.append_txn_member(0, vld.imap.chunk_entries(0), txn_id)

    def restore(chunk_id):
        vld.imap.set(0, old_block)
        return vld.imap.chunk_entries(chunk_id)

    return disk, vld, lambda: vld.vlog.abort_txn(txn_id, restore)


def _abort_write_count() -> int:
    disk, _vld, abort = _aborting_vld()
    before = disk.counters.writes
    abort()
    return disk.counters.writes - before


@pytest.mark.parametrize("crash_at", range(1, _abort_write_count() + 1))
def test_abort_crash_points(crash_at):
    # The fresh record for chunk 0 outranks the kept one, so recovery
    # stops expanding the kept one once it is written: chunk 1's record
    # must be re-homed before that, not after.
    disk, vld, abort = _aborting_vld()
    FaultPlane(("sector-run", crash_at), "torn").install(disk)
    with pytest.raises(DeviceCrashed):
        abort()
    disk.faults = None
    vld.crash()
    recover_both(vld)
    per_chunk = entries_per_chunk(vld.map_record_bytes)
    assert vld.read_block(per_chunk)[0] == bytes([1]) * BS
    assert vld.read_block(0)[0] == bytes([2]) * BS


def test_superseded_records_are_read_but_not_expanded():
    # Overwrite four chunks' blocks over and over: superseded versions
    # stay on the media behind the live records, which the reference
    # keeps expanding and the new traversal does not.
    device = _VLDUnderTest().device
    per_chunk = entries_per_chunk(device.map_record_bytes)
    for round_number in range(3):
        for step in range(40):
            device.write_block(
                (step % 4) * per_chunk, bytes([round_number + 1]) * 4096
            )
        device.power_down()
        device.crash()
        outcome, expected = recover_both(device)
        assert outcome.records_read < expected.records_read
