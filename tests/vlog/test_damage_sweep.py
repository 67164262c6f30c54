"""Damage sweep: one sector of each live kind on a small VLD is damaged
behind the drive's back, in turn, and the resilience layer must notice
(PAPER.md section 3.2 rests recovery on signatures; damage is the case
they exist for).

The script is the crash sweep's bare-VLD workload
(:class:`tests.vlog.test_crash_sweep._VLDUnderTest`, its slots and its
seed) with torture's :class:`~repro.harness.torture._Oracle` choosing
the payloads and keeping what was acknowledged, ended by an orderly
``power_down()`` so the power-down record is live too.  The damage
points are one sector of each mapped data block, of each live map
record and of the power-down record, flipped by
:func:`tests._media.silently_corrupt` (``Disk.damage``).  After each:

(i) every acknowledged LBA reads back its bytes or raises
    ``MediaError``, never other bytes;
(ii) ``crash()`` + ``recover()`` completes, and every block with an
     undamaged copy and mapping reads back its bytes; a block whose copy
     was damaged still raises ``MediaError``, and one mapped only by the
     damaged record reads its bytes, zeros (unmapped) or ``MediaError``;
(iii) ``vlfsck(deep=True)`` is clean or names exactly the damaged block,
      before the crash and after the recovery.
"""

import random

import pytest

from repro.harness.torture import _Oracle
from repro.vlog.entries import entries_per_chunk
from repro.vlog.resilience import MediaError, vlfsck
from tests._media import silently_corrupt
from tests.vlog.test_crash_sweep import _VLDUnderTest

_SEED = 7
#: Which sector of a data block the damage lands on.
_DATA_SECTOR = 3


def _script():
    """The workload, acknowledged into an oracle, then powered down."""
    under_test = _VLDUnderTest()
    oracle = _Oracle(under_test.device.block_size, _SEED)
    rng = random.Random(0xC4A5)
    for step in range(under_test.steps):
        slot = under_test.slot(step, rng)
        under_test.write(slot, oracle.begin_write(slot, 1))
        oracle.ack()
    under_test.power_down()
    return under_test, oracle


def _points():
    """``(kind, block, sector)`` for one sector of every live block:
    ``block`` in the unit vlfsck names it by."""
    vld = _script()[0].device
    spb = vld.sectors_per_block
    points = [
        pytest.param("data", physical, physical * spb + _DATA_SECTOR, id=f"data-{physical}")
        for _lba, physical in sorted(vld.imap.items())
    ]
    record_sectors = vld.vlog.sectors_per_block
    points += [
        pytest.param("map", block, block * record_sectors, id=f"map-{block}")
        for block in sorted(vld.vlog.live_blocks())
    ]
    store = vld.power_store
    points.append(
        pytest.param("power-down", store.block, store.block * store.sectors_per_block,
                     id="power-down")
    )
    return points


def _read(vld, lba):
    try:
        return vld.read_block(lba)[0]
    except MediaError:
        return MediaError


def _fsck_names_only(vld, block):
    for violation in vlfsck(vld, deep=True).violations:
        assert f"block {block} " in f"{violation.detail} ", str(violation)


@pytest.mark.parametrize("kind, block, sector", _points())
def test_damage_is_read_as_damage(kind, block, sector):
    under_test, oracle = _script()
    vld = under_test.device
    acked = sorted(oracle.committed)
    chunk_of = {lba: lba // entries_per_chunk(vld.map_record_bytes) for lba in acked}
    damaged_lba = None
    if kind == "data":
        (damaged_lba,) = [lba for lba, p in vld.imap.items() if p == block]
    unmapped_chunk = vld.vlog.chunk_of_block(block) if kind == "map" else None
    silently_corrupt(vld.disk, sector)

    # (iii), quiescent and damaged.
    _fsck_names_only(vld, block)
    # (i): the acknowledged bytes or a MediaError, never other bytes.
    for lba in acked:
        got = _read(vld, lba)
        assert got in (oracle.expected(lba), MediaError), f"lba {lba}"
        if lba == damaged_lba:
            assert got is MediaError

    # (ii)
    under_test.crash()
    vld.recover()
    vld.vlog.check_invariants()
    for lba in acked:
        got = _read(vld, lba)
        if lba == damaged_lba:
            assert got is MediaError, f"lba {lba}"
        elif chunk_of[lba] == unmapped_chunk:
            assert got in (oracle.expected(lba), bytes(vld.block_size), MediaError)
        else:
            assert got == oracle.expected(lba), f"lba {lba} lost"
    _fsck_names_only(vld, block)


def test_the_sweep_reaches_every_kind():
    kinds = [point.values[0] for point in _points()]
    assert kinds.count("map") >= 1 and kinds.count("power-down") == 1
    assert kinds.count("data") == len(_script()[1].committed)
