"""A guard that counts, not times: a page that verified clean is not
hashed again until it is written (DESIGN.md section 10, "Verify once").

A VLD is written, crashed, recovered and read back twice -- the
durability check of the ledger's ``crash_recover`` workload.
``ChecksumStore.verify`` is counted by the length of the run it checks
and by the sectors it hashes.  Recovered from the power-down record, the
first read-back hashes every block once and the second none, because
nothing was written in between.  Recovered by the full scan, each track
read hashes only its pages no earlier read marked, so across recovery
and both read-backs no sector is hashed twice; the second read-back
hashes none either way.
"""

from collections import Counter

import pytest

from repro.disk.disk import Disk
from repro.disk.specs import ST19101
from repro.vlog.resilience import ChecksumStore, MediaError
from repro.vlog.vld import VirtualLogDisk
from tests._media import silently_corrupt

BLOCKS = 300


def _counting(monkeypatch, sectors=None):
    """Count ``verify`` calls by run length, and into ``sectors`` (a
    ``Counter``, when given) each sector they hash."""
    hashed = Counter()
    verify = ChecksumStore.verify

    def counting_verify(store, sector, count, data):
        hashed[count] += 1
        if sectors is not None:
            sectors.update(range(sector, sector + count))
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
    sectors = Counter()
    hashed = _counting(monkeypatch, sectors)
    outcome = vld.recover()
    assert outcome.scanned != orderly and not outcome.degraded
    per_track = disk.geometry.sectors_per_track
    spb = vld.sectors_per_block
    if orderly:
        assert hashed[per_track] == 0
    else:
        # Reading the (invalid) power-down record hashes and marks track
        # 0's first page, so the scan's read of that track hashes only
        # the rest of it; every other track is hashed whole, once.
        tracks = disk.total_sectors // per_track
        assert hashed == {spb: 1, per_track - spb: 1, per_track: tracks - 1}
        assert sorted(sectors) == list(range(disk.total_sectors))

    hashed.clear()
    _read_back(vld, expected)
    assert hashed == ({spb: len(expected)} if orderly else {})
    hashed.clear()
    _read_back(vld, expected)
    assert hashed == {}
    assert max(sectors.values()) == 1


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


def test_a_half_marked_track_hashes_only_its_unmarked_pages(monkeypatch):
    """A track read whose pages are partly marked hashes only the
    unmarked stretches, marks them, and reports a bad sector in one of
    them as the whole-track verify would."""
    disk = Disk(ST19101, num_cylinders=4)
    vld = VirtualLogDisk(disk)
    for lba in range(64):
        vld.write_block(lba, bytes([lba + 1]) * vld.block_size)
    spb = vld.sectors_per_block
    per_track = disk.geometry.sectors_per_track
    victim = vld.imap.get(0) * spb + 5
    base = victim - victim % per_track
    image = disk._data
    vld.resilience.read_sectors(base, per_track)  # marks the whole track
    assert image.unverified(base * 512, per_track * 512) == []
    # Unmark every other page, the victim's among them, by storing its
    # bytes back unchanged.
    pages = range((victim - base) // spb % 2, per_track // spb, 2)
    for page in pages:
        lo = (base + page * spb) * 512
        image.store(lo, bytes(image[lo : lo + spb * 512]))
    sectors = Counter()
    hashed = _counting(monkeypatch, sectors)
    vld.resilience.read_sectors(base, per_track)
    assert hashed == {spb: len(pages)}
    assert sorted(sectors) == [
        base + page * spb + i for page in pages for i in range(spb)
    ]
    assert image.unverified(base * 512, per_track * 512) == []
    silently_corrupt(disk, victim)
    with pytest.raises(MediaError) as caught:
        vld.resilience.read_sectors(base, per_track)
    assert caught.value.sector == victim
