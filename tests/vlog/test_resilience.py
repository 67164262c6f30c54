"""The media-fault resilience layer: checksums, retries, quarantine,
the scrubber, vlfsck, and degraded recovery."""

import random

import pytest

from repro.blockdev.interpose import DeviceCrashed, FaultPlane
from repro.disk.disk import Disk
from repro.disk.freemap import FreeSpaceMap
from repro.disk.specs import ST19101
from repro.sim.stats import Breakdown
from repro.vlog.allocator import DiskFullError
from repro.vlog.recovery import disk_reader, scan_records
from repro.vlog.resilience import (
    ChecksumStore,
    MediaError,
    RetryPolicy,
    vlfsck,
)
from repro.vlog.vld import VirtualLogDisk
from tests.disk.reference_freemap import ReferenceFreeSpaceMap
from tests._media import poke, silently_corrupt


@pytest.fixture
def disk():
    return Disk(ST19101, num_cylinders=2)


@pytest.fixture
def vld(disk):
    return VirtualLogDisk(disk)


def _payload(tag: int, size: int = 4096) -> bytes:
    return bytes([tag % 251]) * size


def _fill(vld, n=12):
    for lba in range(n):
        vld.write_block(lba, _payload(lba))


# ======================================================================
# ChecksumStore
# ======================================================================

class TestChecksumStore:
    def test_record_verify_roundtrip(self):
        store = ChecksumStore(512, 64)
        data = bytes(range(256)) * 4  # two sectors
        store.record(40, data)
        assert len(store) == 2
        assert store.verify(40, 2, data) == []

    def test_mismatch_names_the_bad_sector(self):
        store = ChecksumStore(512, 64)
        data = b"\x11" * 1024
        store.record(40, data)
        tampered = data[:512] + b"\x22" * 512
        assert store.verify(40, 2, tampered) == [41]

    def test_unrecorded_sectors_verify_clean(self):
        store = ChecksumStore(512, 64)
        assert store.verify(0, 4, bytes(2048)) == []

    def test_forget(self):
        store = ChecksumStore(512, 64)
        store.record(7, b"\x33" * 512)
        store.forget(7)
        assert not store.recorded(7)
        assert store.verify(7, 1, bytes(512)) == []

    def test_disk_write_records_checksums(self, vld, disk):
        vld.write_block(0, _payload(1))
        physical = vld.imap.get(0)
        sector = physical * vld.sectors_per_block
        assert disk.checksums.recorded(sector)
        raw = disk.peek(sector, vld.sectors_per_block)
        assert disk.checksums.verify(sector, vld.sectors_per_block, raw) == []

    def test_silent_corruption_is_detected(self, vld, disk):
        vld.write_block(0, _payload(1))
        sector = vld.imap.get(0) * vld.sectors_per_block
        silently_corrupt(disk, sector)
        raw = disk.peek(sector, 1)
        assert disk.checksums.verify(sector, 1, raw) == [sector]


class TestWholeTrackVerify:
    """``verify`` takes a run at a time and has a way out for each shape
    of track the recovery scan reads (nothing recorded, all zeros,
    mixed); one silently corrupted sector must be reported through every
    one of them."""

    @pytest.fixture
    def track(self, vld, disk):
        """A track the eager allocator has not been near: nothing on it
        has a recorded checksum."""
        per_track = disk.geometry.sectors_per_track
        start = disk.geometry.track_start(1, 5)
        assert not any(
            disk.checksums.recorded(s) for s in range(start, start + per_track)
        )
        return start, per_track

    @staticmethod
    def _bad(disk, start, per_track):
        return disk.checksums.verify(start, per_track, disk.peek(start, per_track))

    def test_mostly_unrecorded_track(self, disk, track):
        start, per_track = track
        assert self._bad(disk, start, per_track) == []
        poke(disk, start + 17, b"\x5a" * 512)
        assert self._bad(disk, start, per_track) == []
        silently_corrupt(disk, start + 17)
        assert self._bad(disk, start, per_track) == [start + 17]

    def test_all_zero_recorded_track(self, disk, track):
        start, per_track = track
        disk.write(start, per_track)  # data-less: zeros, every CRC recorded
        assert len(disk.checksums) >= per_track
        assert self._bad(disk, start, per_track) == []
        silently_corrupt(disk, start + 200)
        assert self._bad(disk, start, per_track) == [start + 200]

    def test_recorded_data_that_reads_back_as_zeros(self, disk, track):
        """The all-zero payload shortcut compares stored CRCs against the
        zero-sector constant: a sector that held data and now reads zeros
        (a lost write) is exactly what it must not wave through."""
        start, per_track = track
        disk.write(start, per_track)
        poke(disk, start + 3, b"\x77" * 512)
        poke(disk, start + 90, b"\x78" * 512)
        for sector in (start + 3, start + 90):
            disk._data.store(sector * 512, bytes(512))
        assert self._bad(disk, start, per_track) == [start + 3, start + 90]

    def test_dense_track(self, disk, track):
        start, per_track = track
        rng = random.Random(4)
        poke(disk, start, rng.randbytes(per_track * 512))
        assert self._bad(disk, start, per_track) == []
        silently_corrupt(disk, start + 255)
        silently_corrupt(disk, start)
        assert self._bad(disk, start, per_track) == [start, start + 255]

    def test_single_sector_run(self, disk, track):
        start, _ = track
        poke(disk, start + 9, b"\x42" * 512)
        assert disk.checksums.verify(start + 9, 1, disk.peek(start + 9)) == []
        assert disk.checksums.verify(start + 8, 1, disk.peek(start + 8)) == []
        silently_corrupt(disk, start + 9)
        assert disk.checksums.verify(start + 9, 1, disk.peek(start + 9)) == [
            start + 9
        ]

    def test_dead_sector_costs_one_record_not_the_track(self, vld, disk):
        """Through the VLD's recovery reader: the scan's whole-track read
        fails its verify, the scan re-drives the track record by record,
        and only the dead record is zero-filled -- the scan still finds
        its neighbours, and names the one slot it lost."""
        _fill(vld, 8)
        per_track = disk.geometry.sectors_per_track
        dead_sector = vld.vlog.tail * vld.vlog.sectors_per_block
        start = dead_sector - dead_sector % per_track
        before = disk.peek(start, per_track)
        neighbours, _held, _zero_filled, _cost, _n = scan_records(
            disk, vld.map_record_bytes, reader=disk_reader(disk)
        )
        on_track = {
            block
            for block in neighbours
            if start <= block * vld.vlog.sectors_per_block < start + per_track
        }
        assert vld.vlog.tail in on_track and len(on_track) > 1
        silently_corrupt(disk, dead_sector)
        found, held, zero_filled, _cost, _n = scan_records(
            disk, vld.map_record_bytes, reader=vld._recovery_read
        )
        assert zero_filled == [(dead_sector, 1)]
        assert set(found) & on_track == on_track - {vld.vlog.tail}
        for block in on_track - {vld.vlog.tail}:
            lo = (block * vld.vlog.sectors_per_block - start) * 512
            assert held[block] == before[lo : lo + vld.map_record_bytes]


# ======================================================================
# RetryPolicy + the retried read path
# ======================================================================

class TestRetryPolicy:
    def test_backoff_schedule_is_geometric(self):
        policy = RetryPolicy(max_attempts=4, initial_backoff=0.002,
                             backoff_factor=2.0)
        assert policy.backoff(1) == pytest.approx(0.002)
        assert policy.backoff(2) == pytest.approx(0.004)
        assert policy.backoff(3) == pytest.approx(0.008)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(initial_backoff=-1.0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_factor=0.5)


class TestRetriedReads:
    def test_transient_error_is_retried_to_success(self, vld, disk):
        _fill(vld, 4)
        sector = vld.imap.get(2) * vld.sectors_per_block
        plane = FaultPlane(
            flaky_sectors={sector: 1.0}, seed=3
        ).install(disk)
        with pytest.raises(MediaError):
            vld.read_block(2)
        res = vld.resilience
        assert res.retries == res.policy.max_attempts - 1
        assert res.media_errors == 1
        assert res.suspects == [sector]
        # The fault clears (it was transient): the next read succeeds.
        plane.flaky_sectors[sector] = 0.0
        data, _ = vld.read_block(2)
        assert data == _payload(2)

    def test_media_error_carries_structured_fields(self, vld, disk):
        _fill(vld, 4)
        sector = vld.imap.get(1) * vld.sectors_per_block
        FaultPlane(bad_sectors={sector}).install(disk)
        with pytest.raises(MediaError) as excinfo:
            vld.read_block(1)
        error = excinfo.value
        assert error.op == "read"
        assert error.sector == sector
        assert error.attempt == vld.resilience.policy.max_attempts
        assert error.__cause__ is not None  # chained injected fault

    def test_backoff_charged_as_locate_time(self, vld, disk):
        _fill(vld, 4)
        sector = vld.imap.get(0) * vld.sectors_per_block
        FaultPlane(bad_sectors={sector}).install(disk)
        breakdown = Breakdown()
        before = disk.clock.now
        policy = vld.resilience.policy
        with pytest.raises(MediaError):
            vld.resilience.read_sectors(sector, 1, breakdown)
        expected_backoff = sum(
            policy.backoff(a) for a in range(1, policy.max_attempts)
        )
        assert breakdown.locate == pytest.approx(expected_backoff)
        assert disk.clock.now >= before + expected_backoff

    def test_checksum_failure_counts_and_raises(self, vld, disk):
        _fill(vld, 4)
        sector = vld.imap.get(3) * vld.sectors_per_block
        silently_corrupt(disk, sector)
        with pytest.raises(MediaError):
            vld.read_block(3)
        res = vld.resilience
        assert res.checksum_failures >= 1
        assert res.media_errors == 1

    def test_device_crash_is_never_retried(self, vld, disk):
        _fill(vld, 2)
        FaultPlane(("sector-run", 1)).install(disk)
        with pytest.raises(DeviceCrashed):
            disk.write(0)  # the power drops: the plane latches
        with pytest.raises(DeviceCrashed):
            vld.read_block(0)
        assert vld.resilience.retries == 0


# ======================================================================
# Quarantine: free map + table + persistence
# ======================================================================

class TestFreemapQuarantine:
    def test_quarantined_sector_reads_used(self, disk):
        freemap = FreeSpaceMap(disk.geometry)
        freemap.mark_free(0, disk.total_sectors)
        freemap.quarantine(100)
        assert not freemap.is_free(100)
        assert freemap.is_quarantined(100)
        assert freemap.quarantined_sectors() == [100]

    def test_blanket_mark_free_preserves_quarantine(self, disk):
        freemap = FreeSpaceMap(disk.geometry)
        freemap.quarantine(100)
        freemap.quarantine(5000)
        freemap.mark_free(0, disk.total_sectors)
        assert not freemap.is_free(100)
        assert not freemap.is_free(5000)
        assert freemap.is_free(101)

    def test_set_quarantined_replaces(self, disk):
        freemap = FreeSpaceMap(disk.geometry)
        freemap.mark_free(0, disk.total_sectors)
        freemap.quarantine(7)
        freemap.set_quarantined([9, 11])
        assert freemap.quarantined_sectors() == [9, 11]
        # Sector 7 is no longer quarantined (though still marked used
        # until the caller's space rebuild frees it).
        assert not freemap.is_quarantined(7)
        freemap.mark_free(7, 1)
        assert freemap.is_free(7)

    def test_reference_implementation_agrees(self, disk):
        rng = random.Random(11)
        fast = FreeSpaceMap(disk.geometry)
        slow = ReferenceFreeSpaceMap(disk.geometry)
        for fm in (fast, slow):
            fm.mark_free(0, disk.total_sectors)
        for _ in range(200):
            sector = rng.randrange(disk.total_sectors - 16)
            count = rng.randrange(1, 16)
            action = rng.random()
            for fm in (fast, slow):
                if action < 0.4:
                    fm.mark_used(sector, count)
                elif action < 0.8:
                    fm.mark_free(sector, count)
                else:
                    fm.quarantine(sector)
        assert fast.quarantined_sectors() == slow.quarantined_sectors()
        for sector in range(disk.total_sectors):
            assert fast.is_free(sector) == slow.is_free(sector)
            assert fast.is_quarantined(sector) == slow.is_quarantined(sector)

    def test_allocator_never_hands_out_quarantined_blocks(self):
        disk = Disk(ST19101, num_cylinders=1)
        vld = VirtualLogDisk(disk)
        block = vld.allocator.allocate()
        vld.allocator.free_block(block)
        for i in range(vld.sectors_per_block):
            vld.resilience.quarantine_sector(block * vld.sectors_per_block + i)
        allocated = []
        try:
            while True:
                allocated.append(vld.allocator.allocate())
        except DiskFullError:
            pass
        assert block not in allocated
        assert len(allocated) > 0


class TestQuarantinePersistence:
    def test_quarantine_survives_crash_and_recovery(self, vld, disk):
        _fill(vld, 8)
        victim = disk.total_sectors - 5  # a free sector far from the data
        assert vld.resilience.quarantine_sector(victim)
        vld.resilience.persist_quarantine()
        vld.crash()
        outcome = vld.recover()
        assert victim in vld.resilience.quarantine
        assert vld.freemap.is_quarantined(victim)
        assert outcome.quarantined_sectors == 1
        for lba in range(8):
            data, _ = vld.read_block(lba)
            assert data == _payload(lba)
        assert vlfsck(vld, deep=True).ok

    def test_unpersisted_quarantine_is_volatile(self, vld):
        _fill(vld, 4)
        victim = vld.disk.total_sectors - 5
        vld.resilience.quarantine_sector(victim)
        vld.crash()
        vld.recover()
        assert victim not in vld.resilience.quarantine
        assert not vld.freemap.is_quarantined(victim)

    def test_persist_is_noop_when_clean(self, vld):
        _fill(vld, 2)
        tail_before = vld.vlog.tail
        cost = vld.resilience.persist_quarantine()
        assert cost.total == 0.0
        assert vld.vlog.tail == tail_before


# ======================================================================
# The scrubber
# ======================================================================

class TestScrubber:
    def test_migrates_live_data_off_flaky_sector(self, vld, disk):
        _fill(vld, 10)
        old_block = vld.imap.get(3)
        sector = old_block * vld.sectors_per_block
        plane = FaultPlane(
            flaky_sectors={sector: 1.0}, seed=5
        ).install(disk)
        with pytest.raises(MediaError):
            vld.read_block(3)
        plane.flaky_sectors[sector] = 0.0  # transient fault clears
        vld.idle(0.5)
        scrubber = vld.resilience.scrubber
        assert scrubber.blocks_migrated == 1
        assert vld.imap.get(3) != old_block
        assert sector in vld.resilience.quarantine
        data, _ = vld.read_block(3)
        assert data == _payload(3)
        assert vlfsck(vld, deep=True).ok

    def test_salvage_retries_through_marginal_sector(self, vld, disk):
        """A sector that fails most -- but not all -- read attempts is
        still salvaged: the scrubber spends several retry rounds."""
        _fill(vld, 10)
        old_block = vld.imap.get(5)
        sector = old_block * vld.sectors_per_block
        FaultPlane(flaky_sectors={sector: 0.8}, seed=9).install(disk)
        vld.resilience.note_suspect(sector)
        vld.idle(1.0)
        assert vld.resilience.scrubber.blocks_migrated == 1
        assert vld.imap.get(5) != old_block
        data, _ = vld.read_block(5)
        assert data == _payload(5)

    def test_unreadable_block_is_reported_lost_not_zeroed(self, vld, disk):
        _fill(vld, 10)
        old_block = vld.imap.get(4)
        sector = old_block * vld.sectors_per_block
        FaultPlane(bad_sectors={sector}).install(disk)
        with pytest.raises(MediaError):
            vld.read_block(4)
        vld.idle(1.0)
        scrubber = vld.resilience.scrubber
        assert scrubber.lost_sectors == [sector]
        # The mapping stays: the host keeps seeing the error, never zeros.
        assert vld.imap.get(4) == old_block
        with pytest.raises(MediaError):
            vld.read_block(4)

    def test_relocates_live_map_record(self, vld, disk):
        _fill(vld, 4)
        record_block = vld.vlog.tail
        map_spb = vld.vlog.sectors_per_block
        sector = record_block * map_spb
        vld.resilience.note_suspect(sector)
        relocations_before = vld.vlog.relocations
        vld.idle(0.5)
        assert vld.resilience.scrubber.records_relocated == 1
        assert vld.vlog.relocations > relocations_before
        assert sector in vld.resilience.quarantine
        assert vlfsck(vld, deep=True).ok

    def test_free_suspect_is_just_quarantined(self, vld):
        _fill(vld, 2)
        victim = vld.disk.total_sectors - 3
        vld.resilience.note_suspect(victim)
        vld.idle(0.5)
        assert victim in vld.resilience.quarantine
        assert vld.resilience.scrubber.sectors_quarantined == 1
        assert vlfsck(vld).ok

    def test_idle_without_suspects_never_pays_for_scrubbing(self, vld):
        _fill(vld, 2)
        assert not vld.resilience.scrubber.pending
        vld.idle(0.1)
        assert vld.resilience.scrubber.sectors_scrubbed == 0


# ======================================================================
# vlfsck
# ======================================================================

class TestVlfsck:
    def test_clean_on_healthy_device(self, vld):
        _fill(vld, 16)
        vld.trim(3)
        vld.idle(0.2)
        report = vlfsck(vld, deep=True)
        assert report.ok, report.summary()
        assert report.checked_blocks == 15
        assert report.checked_records > 0

    def test_detects_freemap_drift(self, vld):
        _fill(vld, 6)
        physical = vld.imap.get(2)
        vld.freemap.mark_free(
            physical * vld.sectors_per_block, vld.sectors_per_block
        )
        report = vlfsck(vld)
        assert any(v.kind == "freemap" for v in report.violations)

    @pytest.mark.parametrize("stray", [3, 1])
    def test_freemap_report_names_the_first_eight_disagreeing_sectors(
        self, vld, stray
    ):
        # Both directions at once: a mapped block marked free, and stray
        # sectors at the end of the disk marked used.
        _fill(vld, 6)
        spb = vld.sectors_per_block
        mapped = vld.imap.get(2) * spb
        vld.freemap.mark_free(mapped, 4)
        end = vld.disk.total_sectors
        assert vld.freemap.run_is_free(end - stray, stray)
        vld.freemap.mark_used(end - stray, stray)
        disagree = [*range(mapped, mapped + 4), *range(end - stray, end)]
        report = vlfsck(vld)
        details = [v.detail for v in report.violations if v.kind == "freemap"]
        assert details == [
            f"free map disagrees with live state at sectors {disagree[:8]}"
            + ("..." if len(disagree) > 8 else "")
        ]

    def test_detects_aliased_mapping(self, vld):
        _fill(vld, 6)
        vld.imap.set(0, vld.imap.get(1))
        report = vlfsck(vld)
        assert any(v.kind == "map-aliased" for v in report.violations)

    def test_detects_desynchronised_reverse_map(self, vld):
        _fill(vld, 6)
        vld.reverse.pop(vld.imap.get(5))
        report = vlfsck(vld)
        assert any(v.kind == "reverse-map" for v in report.violations)

    def test_deep_mode_catches_silent_corruption(self, vld, disk):
        _fill(vld, 6)
        sector = vld.imap.get(1) * vld.sectors_per_block
        silently_corrupt(disk, sector)
        assert vlfsck(vld).ok  # shallow pass cannot see it
        report = vlfsck(vld, deep=True)
        assert any(v.kind == "data-checksum" for v in report.violations)

    def test_deep_mode_catches_stale_live_record(self, vld, disk):
        _fill(vld, 6)
        # Mutate the map behind the log's back: the live record on disk
        # no longer carries the chunk's current contents.
        vld.imap._entries[0] ^= 1
        report = vlfsck(vld, deep=True)
        assert not report.ok


# ======================================================================
# Degraded recovery: reconstruction from all valid records
# ======================================================================

class TestDegradedRecovery:
    def test_unreadable_interior_record_escalates_to_reconstruction(
        self, vld, disk
    ):
        # One write into a *second* map chunk: its (only) record stays
        # interior in the traversal once chunk-0 appends pile on top.
        other_chunk_lba = 120  # chunk 1 (112 entries per 512 B chunk)
        vld.write_block(other_chunk_lba, _payload(99))
        interior = vld.vlog.tail
        _fill(vld, 8)
        bad = interior * vld.vlog.sectors_per_block
        vld.crash()
        FaultPlane(bad_sectors={bad}).install(disk)
        outcome = vld.recover()
        assert outcome.degraded
        assert outcome.reconstructed
        # Chunk 0 has younger readable records: fully intact.
        for lba in range(8):
            data, _ = vld.read_block(lba)
            assert data == _payload(lba)
        # Chunk 1's only record died with the sector: exactly that one
        # chunk's latest update is lost (reads as never written) -- the
        # paper's bound, never the tree behind it.
        data, _ = vld.read_block(other_chunk_lba)
        assert data == bytes(vld.block_size)
        assert vlfsck(vld).ok

    def test_resilient_scan_survives_flaky_media(self, vld, disk):
        _fill(vld, 8)
        vld.crash()
        rng = random.Random(2)
        flaky = {
            rng.randrange(disk.total_sectors): 0.4 for _ in range(20)
        }
        FaultPlane(flaky_sectors=flaky, seed=2).install(disk)
        outcome = vld.recover()
        assert outcome.scanned
        for lba in range(8):
            data, _ = vld.read_block(lba)
            assert data == _payload(lba)


# ======================================================================
# Figure identity: the resilience layer is free, absent faults
# ======================================================================

#: ``_drive(resilience=False)`` as recorded at the last commit that had a
#: VLD without the layer (c06c75b): the simulated clock, the summed
#: breakdowns, the fill byte of every block read, the final mapping.  The
#: VLD with the layer matched it bit for bit there, which is what let the
#: switch go; the one remaining path must keep matching.
_GOLDEN_NO_LAYER_RUN = (
    0.2521875,
    0.04334843749999995,
    [0, 0, 0, 0, 0, 0x1F, 0, 0, 0, 0, 0x08, 0, 0, 0, 0, 0],
    [(0, 72), (6, 91), (7, 94), (8, 51), (9, 47), (11, 56), (12, 92),
     (14, 64), (15, 58), (17, 42), (18, 44), (19, 66), (23, 70), (24, 49),
     (27, 78), (28, 95), (29, 68), (30, 54), (31, 59), (38, 61), (39, 53),
     (43, 93), (47, 74), (49, 62), (53, 90), (54, 55), (57, 83), (59, 88),
     (62, 43), (63, 81)],
)


class TestFigureIdentity:
    @staticmethod
    def _drive():
        disk = Disk(ST19101, num_cylinders=2)
        vld = VirtualLogDisk(disk)
        rng = random.Random(7)
        total = 0.0
        reads = []
        for _ in range(60):
            action = rng.random()
            lba = rng.randrange(64)
            if action < 0.55:
                total += vld.write_block(lba, _payload(lba)).total
            elif action < 0.8:
                data, cost = vld.read_block(lba)
                reads.append(data)
                total += cost.total
            elif action < 0.9:
                total += vld.trim(lba).total
            else:
                vld.idle(0.05)
        vld.power_down()
        vld.crash()
        outcome = vld.recover()
        total += outcome.breakdown.total
        return disk.clock.now, total, reads, list(vld.imap.items())

    def test_timing_and_state_identical_with_no_faults(self):
        clock, total, reads, mapping = self._drive()
        want_clock, want_total, want_fill, want_mapping = _GOLDEN_NO_LAYER_RUN
        assert clock == want_clock  # simulated clock, bit-for-bit
        assert total == want_total  # summed breakdowns
        assert reads == [bytes([fill]) * 4096 for fill in want_fill]
        assert mapping == want_mapping  # final mapping
