"""A guard that counts, not times: a page that verified clean is not
hashed again until it is written (DESIGN.md section 10, "Verify once").

A VLD is written, crashed, recovered and read back twice -- the
durability check of the ledger's ``crash_recover`` workload.
``ChecksumStore.verify`` is counted by the length of the run it checks.
Recovered from the power-down record, the first read-back hashes every
block once and the second none, because nothing was written in between.
Recovered by the full scan, every whole track is hashed once, and that
clean verify marks every page of it: neither read-back hashes a block.
"""

from collections import Counter

import pytest

from repro.disk.disk import Disk
from repro.disk.specs import ST19101
from repro.vlog.resilience import ChecksumStore
from repro.vlog.vld import VirtualLogDisk

BLOCKS = 300


def _counting(monkeypatch):
    hashed = Counter()
    verify = ChecksumStore.verify

    def counting_verify(store, sector, count, data):
        hashed[count] += 1
        return verify(store, sector, count, data)

    monkeypatch.setattr(ChecksumStore, "verify", counting_verify)
    return hashed


def _read_back(vld, expected):
    for lba, tag in expected.items():
        assert vld.read_block(lba)[0] == bytes([tag]) * vld.block_size


@pytest.mark.parametrize("orderly", [True, False], ids=["by-record", "by-scan"])
def test_a_second_read_back_hashes_no_block(orderly, monkeypatch):
    disk = Disk(ST19101, num_cylinders=4)
    vld = VirtualLogDisk(disk)
    expected = {}
    for i in range(BLOCKS):
        lba = (i * 37) % (2 * BLOCKS)
        expected[lba] = 1 + i % 251
        vld.write_block(lba, bytes([expected[lba]]) * vld.block_size)
    if orderly:
        vld.power_down()
    vld.crash()
    hashed = _counting(monkeypatch)
    outcome = vld.recover()
    assert outcome.scanned != orderly and not outcome.degraded
    per_track = disk.geometry.sectors_per_track
    assert hashed[per_track] == (0 if orderly else disk.total_sectors // per_track)

    spb = vld.sectors_per_block
    hashed.clear()
    _read_back(vld, expected)
    assert hashed == ({spb: len(expected)} if orderly else {})
    hashed.clear()
    _read_back(vld, expected)
    assert hashed == {}


def test_a_write_makes_its_block_hash_again(monkeypatch):
    vld = VirtualLogDisk(Disk(ST19101, num_cylinders=4))
    for lba in range(8):
        vld.write_block(lba, bytes([lba + 1]) * vld.block_size)
    for lba in range(8):
        vld.read_block(lba)
    hashed = _counting(monkeypatch)
    for lba in range(8):
        vld.read_block(lba)
    assert sum(hashed.values()) == 0
    vld.write_block(3, bytes([99]) * vld.block_size)
    for lba in range(8):
        vld.read_block(lba)
    assert hashed == {vld.sectors_per_block: 1}
