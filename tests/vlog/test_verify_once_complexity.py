"""A guard that counts, not times: no sector is hashed more than once,
because no undamaged sector is hashed at all (DESIGN.md section 10,
"Checksum envelope").

A VLD is written, crashed, recovered and read back twice -- the
durability check of the ledger's ``crash_recover`` workload.  Two
things are counted: the runs ``ChecksumStore.verify`` is asked about,
and the sectors the checksum sidecar hashes (through its module's
``zlib``).  Recovered from the power-down record or by the full scan,
every run recovery and the read-backs read is verified, and none of
them hashes a sector: the read bytes are the media's and nothing on the
media was damaged.  Only a damaged sector is ever hashed.
"""

from collections import Counter

import pytest

from repro.disk.disk import Disk
from repro.disk.specs import ST19101
from repro.vlog.resilience import ChecksumStore, MediaError
from repro.vlog.vld import VirtualLogDisk
from tests._counting import count_sectors_hashed
from tests._media import silently_corrupt

BLOCKS = 300


def _counting(monkeypatch, sectors=None):
    """Count ``verify`` calls by run length, and into ``sectors`` (a
    ``Counter``, when given) each sector they verify."""
    verified = Counter()
    verify = ChecksumStore.verify

    def counting_verify(store, sector, count, data):
        verified[count] += 1
        if sectors is not None:
            sectors.update(range(sector, sector + count))
        return verify(store, sector, count, data)

    monkeypatch.setattr(ChecksumStore, "verify", counting_verify)
    return verified


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
    sectors = Counter()
    verified = _counting(monkeypatch, sectors)
    crcs = count_sectors_hashed(monkeypatch)
    outcome = vld.recover()
    assert outcome.scanned != orderly and not outcome.degraded
    per_track = disk.geometry.sectors_per_track
    spb = vld.sectors_per_block
    if orderly:
        assert verified[per_track] == 0
    else:
        # The (invalid) power-down record's block, then every track
        # whole, once: the scan verifies every sector of the disk.
        tracks = disk.total_sectors // per_track
        assert verified == {spb: 1, per_track: tracks}
        assert sorted(sectors) == list(range(disk.total_sectors))
    assert crcs[0] == 0

    verified.clear()
    _read_back(vld, expected)
    assert verified == {spb: len(expected)}
    assert crcs[0] == 0
    verified.clear()
    _read_back(vld, expected)
    assert verified == {spb: len(expected)}
    assert crcs[0] == 0


def test_a_write_makes_its_block_hash_again(monkeypatch):
    """A write records its sectors without hashing them, and the reads
    after it verify the new bytes without hashing them either."""
    vld = VirtualLogDisk(Disk(ST19101, num_cylinders=4))
    for lba in range(8):
        vld.write_block(lba, bytes([lba + 1]) * vld.block_size)
    verified = _counting(monkeypatch)
    crcs = count_sectors_hashed(monkeypatch)
    for lba in range(8):
        vld.read_block(lba)
    vld.write_block(3, bytes([99]) * vld.block_size)
    for lba in range(8):
        assert vld.read_block(lba)[0] == bytes([99 if lba == 3 else lba + 1]) * 4096
    assert verified == {vld.sectors_per_block: 16}
    assert crcs[0] == 0


def test_a_half_marked_track_hashes_only_its_unmarked_pages(monkeypatch):
    """A track read hashes only its damaged sector -- once when the
    damage saves the CRC it had, once per read attempt -- and reports it
    as the whole-track verify would."""
    disk = Disk(ST19101, num_cylinders=4)
    vld = VirtualLogDisk(disk)
    for lba in range(64):
        vld.write_block(lba, bytes([lba + 1]) * vld.block_size)
    spb = vld.sectors_per_block
    per_track = disk.geometry.sectors_per_track
    victim = vld.imap.get(0) * spb + 5
    base = victim - victim % per_track
    crcs = count_sectors_hashed(monkeypatch)
    vld.resilience.read_sectors(base, per_track)
    assert crcs[0] == 0
    silently_corrupt(disk, victim)
    assert crcs[0] == 1
    with pytest.raises(MediaError) as caught:
        vld.resilience.read_sectors(base, per_track)
    assert caught.value.sector == victim
    attempts = vld.resilience.policy.max_attempts
    assert caught.value.attempt == attempts
    assert crcs[0] == 1 + attempts
