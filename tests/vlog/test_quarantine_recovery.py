"""Recovery when the *quarantine table's own record* dies on disk.

The quarantine table persists through the virtual log like any other
chunk.  If the sector holding that record becomes unreadable before a
crash, the scan cannot recover the table -- the failure mode must be a
conservatively *rebuilt* quarantine (the dead record's sectors retired,
nothing handed back to the allocator), never a silently emptied one.
"""

import pytest

from repro.blockdev.interpose import FaultPlane
from repro.disk.disk import Disk
from repro.disk.specs import ST19101
from repro.vlog.entries import QUARANTINE_CHUNK_BASE
from repro.vlog.resilience import vlfsck
from repro.vlog.vld import VirtualLogDisk


@pytest.fixture
def disk():
    return Disk(ST19101, num_cylinders=2)


@pytest.fixture
def vld(disk):
    return VirtualLogDisk(disk)


def _payload(tag: int, size: int = 4096) -> bytes:
    return bytes([tag % 251]) * size


def _fill(vld, n=10):
    for lba in range(n):
        vld.write_block(lba, _payload(lba))


def _quarantine_record_sector(vld):
    """The physical sector holding the current quarantine-table record."""
    block = vld.vlog.location_of(QUARANTINE_CHUNK_BASE)
    assert block is not None, "quarantine table was never persisted"
    return block * vld.vlog.sectors_per_block


class TestDeadQuarantineRecord:
    def test_record_sector_is_conservatively_requarantined(self, vld, disk):
        _fill(vld)
        victim = disk.total_sectors - 5  # a free sector far from the data
        assert vld.resilience.quarantine_sector(victim)
        vld.resilience.persist_quarantine()
        record_sector = _quarantine_record_sector(vld)

        # The record's home sector dies; every read of it now fails.
        FaultPlane(bad_sectors={record_sector}, seed=3).install(disk)
        vld.crash()
        outcome = vld.recover()

        # Recovery completed, and the unreadable record's sector -- free
        # in the rebuilt map, so nothing would ever re-discover the
        # defect -- was retired before the allocator could reuse it.
        assert outcome.scanned
        assert outcome.conservatively_quarantined >= 1
        assert record_sector in vld.resilience.quarantine
        assert vld.freemap.is_quarantined(record_sector)

    def test_quarantine_is_never_silently_emptied(self, vld, disk):
        _fill(vld)
        victim = disk.total_sectors - 5
        vld.resilience.quarantine_sector(victim)
        vld.resilience.persist_quarantine()
        record_sector = _quarantine_record_sector(vld)
        FaultPlane(bad_sectors={record_sector}, seed=3).install(disk)
        vld.crash()
        outcome = vld.recover()

        # The table's *contents* died with the record, but the rebuilt
        # quarantine is non-empty and re-persisted: a later crash finds a
        # valid record again.
        assert len(vld.resilience.quarantine) >= 1
        assert outcome.quarantined_sectors >= 1
        assert vld.vlog.location_of(QUARANTINE_CHUNK_BASE) is not None
        fresh = vld.vlog.location_of(QUARANTINE_CHUNK_BASE)
        assert fresh * vld.vlog.sectors_per_block != record_sector

    def test_data_survives_and_fsck_is_clean(self, vld, disk):
        _fill(vld)
        vld.resilience.quarantine_sector(disk.total_sectors - 5)
        vld.resilience.persist_quarantine()
        record_sector = _quarantine_record_sector(vld)
        FaultPlane(bad_sectors={record_sector}, seed=3).install(disk)
        vld.crash()
        vld.recover()
        for lba in range(10):
            data, _ = vld.read_block(lba)
            assert data == _payload(lba)
        report = vlfsck(vld, deep=True)
        assert report.ok, report.summary()

    def test_dead_live_sector_becomes_suspect_not_quarantined(
        self, vld, disk
    ):
        """The conservative rule only retires *free* dead sectors; a dead
        sector still holding live data stays reachable and is queued for
        the scrubber's salvage path instead."""
        _fill(vld)
        live_sector = vld.imap.get(3) * vld.sectors_per_block
        FaultPlane(bad_sectors={live_sector}, seed=3).install(disk)
        vld.crash()
        outcome = vld.recover()
        assert live_sector not in vld.resilience.quarantine
        assert live_sector in vld.resilience.suspects
        assert not vld.freemap.is_quarantined(live_sector)
        assert outcome.scanned
