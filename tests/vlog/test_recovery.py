"""Power-down record and scan-fallback recovery (Section 3.2)."""

import random
import struct
import zlib

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.disk.disk import Disk
from repro.disk.specs import ST19101
from repro.nvm.wal import NVWal
from repro.sim.stats import Breakdown
from repro.vlog import recovery
from repro.vlog.recovery import (
    PowerDownStore,
    RecoveryOutcome,
    fold_outcomes,
    _youngest,
    disk_reader,
    scan_records,
)
from repro.vlog.entries import MAGIC, MapRecord, entries_per_chunk, pack_record
from repro.vlog.vld import VirtualLogDisk
from tests.vlog.test_recovery_scan_reuse import (
    SCAN_LOST_THE_TAIL,
    _flaky_tail_recovery,
)
from tests._media import corrupt_power_down_record, op_counts, poke


def _read_record(store):
    """The power-down record ``store``'s disk holds now, parsed."""
    return store.parse(store.read_raw(disk_reader(store.disk))[0])


@pytest.fixture
def disk():
    return Disk(ST19101, num_cylinders=2)


@pytest.fixture
def store(disk):
    return PowerDownStore(disk, block=0, block_size=4096)


class TestPowerDownStore:
    def test_write_read_roundtrip(self, store):
        store.write(tail_block=123, seqno=77)
        record = _read_record(store)
        assert record == (123, 77)

    def test_blank_disk_reads_none(self, store):
        record = _read_record(store)
        assert record is None

    def test_clear_erases(self, store):
        store.write(9, 2)
        store.clear()
        record = _read_record(store)
        assert record is None

    def test_corrupt_record_detected_by_checksum(self, store):
        """The 'extremely rare case when this power down sequence fails'
        must be detected, not trusted."""
        store.write(9, 2)
        corrupt_power_down_record(store)
        record = _read_record(store)
        assert record is None

    def test_bitflip_detected(self, store, disk):
        store.write(1000, 50)
        raw = bytearray(disk.peek(store._sector, store.sectors_per_block))
        raw[9] ^= 0x40  # flip a bit inside the tail field
        poke(disk, store._sector, bytes(raw))
        record = _read_record(store)
        assert record is None


def _scan_for_tail(disk, skip_sectors=0):
    """The scan fallback's answer: the block of the youngest record a full
    scan finds (from its ``block -> seqno``), the scan's cost and the
    slots it examined."""
    seqnos, _held, _zero_filled, cost, examined = scan_records(
        disk, 4096, skip_sectors, reader=disk_reader(disk)
    )
    return _youngest(seqnos), cost, examined


class TestScanFallback:
    def _plant(self, disk, block, chunk_id, seqno):
        poke(disk, block * 8, pack_record(4096, chunk_id, seqno, [seqno]))

    def test_finds_youngest_record(self, disk):
        self._plant(disk, 10, 0, 5)
        self._plant(disk, 200, 1, 9)
        self._plant(disk, 400, 0, 7)
        tail, _cost, examined = _scan_for_tail(disk)
        assert tail == 200
        assert examined == disk.total_sectors // 8

    def test_empty_disk_finds_nothing(self, disk):
        tail, _cost, _n = _scan_for_tail(disk)
        assert tail is None

    def test_data_blocks_ignored(self, disk):
        poke(disk, 80, b"Z" * 4096)
        self._plant(disk, 50, 0, 3)
        tail, _, _ = _scan_for_tail(disk)
        assert tail == 50

    def test_timed_scan_costs_whole_disk_reads(self, disk):
        """The scan is the slow path: it must cost on the order of reading
        every track once (why the power-down record matters)."""
        self._plant(disk, 3, 0, 1)
        _tail, cost, _n = _scan_for_tail(disk)
        tracks = disk.geometry.num_cylinders * disk.geometry.tracks_per_cylinder
        min_transfer = tracks * disk.geometry.sectors_per_track * (
            disk.mechanics.sector_time
        )
        assert cost.total >= min_transfer * 0.9


def _tiny_unaligned_spec():
    """12 sectors/track with 4 KB (8-sector) blocks: track starts are not
    block-aligned, so map records straddle track boundaries and each track
    carries a 4-sector remainder."""
    from repro.disk.specs import DiskSpec

    rpm = 10000.0
    sector_time = (60.0 / rpm) / 12
    return DiskSpec(
        name="TINY12",
        sectors_per_track=12,
        tracks_per_cylinder=2,
        num_cylinders=4,
        sim_cylinders=4,
        rpm=rpm,
        head_switch_time=2 * sector_time,
        scsi_overhead=1e-4,
        sector_bytes=512,
        seek_short_a=3e-4,
        seek_short_b=2e-4,
        seek_long_c=4e-3,
        seek_long_e=8e-7,
        seek_boundary=400,
    )


class TestScanUnalignedGeometry:
    """The scan fallback when sectors_per_track % sectors_per_block != 0.

    The seed implementation numbered blocks per track as
    ``track_start // spb + i`` (only valid for block-aligned track starts)
    and never parsed each track's remainder sectors, so records straddling
    a track boundary or sitting in the remainder were invisible.
    """

    def _plant(self, disk, block, seqno):
        poke(disk, block * 8, pack_record(4096, 0, seqno, [seqno]))

    def test_examines_every_whole_block(self):
        disk = Disk(_tiny_unaligned_spec())
        assert disk.total_sectors == 96
        _tail, _cost, examined = _scan_for_tail(disk)
        assert examined == disk.total_sectors // 8  # 12, not the seed's 8

    def test_finds_record_straddling_a_track_boundary(self):
        disk = Disk(_tiny_unaligned_spec())
        # Block 4 = sectors 32..39; tracks are 12 sectors, so it straddles
        # the boundary at sector 36.
        self._plant(disk, 4, seqno=10)
        tail, _cost, _n = _scan_for_tail(disk)
        assert tail == 4

    def test_finds_youngest_across_remainder_regions(self):
        disk = Disk(_tiny_unaligned_spec())
        self._plant(disk, 4, seqno=10)
        # Block 11 = sectors 88..95, inside the last track (84..95) but
        # past the last old per-track parse window (84..91).
        self._plant(disk, 11, seqno=20)
        tail, _cost, _n = _scan_for_tail(disk)
        assert tail == 11

    def test_skip_sectors_still_honoured(self):
        disk = Disk(_tiny_unaligned_spec())
        self._plant(disk, 0, seqno=99)
        self._plant(disk, 4, seqno=5)
        tail, _cost, examined = _scan_for_tail(disk, skip_sectors=8)
        assert tail == 4
        assert examined == disk.total_sectors // 8 - 1

    def test_timed_scan_matches_untimed_answer(self):
        disk = Disk(_tiny_unaligned_spec())
        self._plant(disk, 4, seqno=10)
        self._plant(disk, 11, seqno=20)
        tail, cost, _n = _scan_for_tail(disk)
        assert tail == 11
        assert cost.total > 0.0


# ======================================================================
# The sieve scan against the per-slot parser it replaced
# ======================================================================

_HEADER = struct.Struct("<8sIIqqqqI")


def _reference_unpack(raw: bytes):
    """The record parser as it stood before the sieve: CRC first, then
    magic, then the entry-count bound, every slot paying all of it."""
    if len(raw) <= _HEADER.size + 4 + 4:
        return None
    payload = raw[:-4]
    if zlib.crc32(payload) != struct.unpack("<I", raw[-4:])[0]:
        return None
    magic, chunk_id, n_entries, seqno, prev, b1, b2, txn = _HEADER.unpack(
        payload[: _HEADER.size]
    )
    if magic != MAGIC or n_entries > entries_per_chunk(len(raw)):
        return None
    body = payload[_HEADER.size : _HEADER.size + 4 * n_entries]
    return MapRecord(
        chunk_id=chunk_id,
        seqno=seqno,
        entries=list(struct.unpack(f"<{n_entries}I", body)),
        prev_root=None if prev < 0 else prev,
        bypass1=None if b1 < 0 else b1,
        bypass2=None if b2 < 0 else b2,
        txn_id=txn,
    )


def _reference_scan(disk, block_size, skip_sectors, reader):
    """Differential reference for ``scan_records``: read every track,
    lay the disk out flat, parse every slot one at a time.  ``reader``
    fails whole tracks, which zero-fills every slot-sized piece of them
    (counted from the track's start)."""
    geometry = disk.geometry
    per_track = geometry.sectors_per_track
    sectors_per_block = block_size // disk.sector_bytes
    image = bytearray()
    zero_filled = []
    for cylinder in range(geometry.num_cylinders):
        for head in range(geometry.tracks_per_cylinder):
            start = geometry.track_start(cylinder, head)
            raw = disk.peek(start, per_track)
            if reader is not None:
                raw = reader(start, per_track, None)
                if raw is None:
                    raw = bytes(per_track * disk.sector_bytes)
                    zero_filled += [
                        (start + offset, min(sectors_per_block, per_track - offset))
                        for offset in range(0, per_track, sectors_per_block)
                    ]
            image += raw
    found = {}
    examined = 0
    for block in range(geometry.total_sectors // sectors_per_block):
        if (block + 1) * sectors_per_block <= skip_sectors:
            continue
        examined += 1
        lo = block * block_size
        record = _reference_unpack(bytes(image[lo : lo + block_size]))
        if record is not None:
            found[block] = record
    return found, examined, zero_filled


def _assert_matches_the_reference(disk, sectors_per_block, found, held, want):
    """The scan's ``block -> seqno`` and bytes against the reference's
    parsed records: the same blocks, the same sequence numbers, and bytes
    that are the media's and parse to the reference's record."""
    assert found == {block: record.seqno for block, record in want.items()}
    assert held.keys() == found.keys()
    for block, raw in held.items():
        assert raw == disk.peek(block * sectors_per_block, sectors_per_block)
        assert MapRecord.unpack(raw) == want[block]


#: What a slot of the random image holds ("record" twice: drawn twice as
#: often, so most images carry several valid records).
_SLOT_KINDS = (
    "zeros",
    "record",
    "record",
    "bad_crc",  # slot-aligned MAGIC, body damaged
    "magic_user_block",  # user data that merely *starts* with MAGIC
    "unaligned_magic",  # MAGIC inside data, off the slot grid
    "first_byte_only",  # every byte is MAGIC's first byte
    "noise",
    "misplaced_record",  # a valid record one sector off the slot grid
)


def _random_image(disk, block_size, kinds, rng):
    sector_bytes = disk.sector_bytes
    sectors_per_block = block_size // sector_bytes
    for block, kind in enumerate(kinds):
        record = pack_record(
            block_size,
            chunk_id=rng.randrange(4),
            seqno=rng.randrange(1, 1000),
            entries=[rng.randrange(2**32) for _ in range(rng.randrange(9))],
            prev_root=rng.choice([None, rng.randrange(64)]),
            bypass1=rng.choice([None, rng.randrange(64)]),
            txn_id=rng.choice([0, 0, 3]),
        )
        sector = block * sectors_per_block
        if kind == "zeros":
            continue
        if kind == "record":
            payload = record
        elif kind == "bad_crc":
            damaged = bytearray(record)
            damaged[rng.randrange(8, block_size)] ^= 1 << rng.randrange(8)
            payload = bytes(damaged)
        elif kind == "magic_user_block":
            payload = MAGIC + rng.randbytes(block_size - len(MAGIC))
        elif kind == "unaligned_magic":
            data = bytearray(rng.randbytes(block_size))
            for _ in range(3):
                at = rng.randrange(1, block_size - len(MAGIC))
                data[at : at + len(MAGIC)] = MAGIC
            payload = bytes(data)
        elif kind == "first_byte_only":
            payload = MAGIC[:1] * block_size
        elif kind == "noise":
            payload = rng.randbytes(block_size)
        else:  # misplaced_record
            if (
                sectors_per_block == 1
                or sector + 1 + sectors_per_block > disk.total_sectors
            ):
                continue
            sector += 1
            payload = record
        poke(disk, sector, payload)


class TestSieveScanDifferential:
    """``scan_records`` finds slot-aligned ``MAGIC`` with C-level slicing
    and tests only those slots, keeping each record's sequence number and
    bytes; the answer must be the per-slot parser's, on every image,
    geometry, skip and reader."""

    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(data=st.data())
    def test_matches_the_per_slot_reference(self, data):
        # 12 sectors a track: 1- and 2-sector slots tile a track, 5- and
        # 8-sector slots straddle track boundaries.
        disk = Disk(_tiny_unaligned_spec())
        sectors_per_block = data.draw(st.sampled_from([1, 2, 5, 8]))
        block_size = sectors_per_block * disk.sector_bytes
        total_blocks = disk.total_sectors // sectors_per_block
        kinds = data.draw(
            st.lists(
                st.sampled_from(_SLOT_KINDS),
                min_size=total_blocks,
                max_size=total_blocks,
            )
        )
        rng = random.Random(data.draw(st.integers(0, 2**32)))
        _random_image(disk, block_size, kinds, rng)
        skip_sectors = data.draw(st.integers(0, disk.total_sectors // 2))
        dead_tracks = data.draw(
            st.one_of(
                st.none(),
                st.sets(
                    st.integers(0, disk.total_sectors - 1).map(
                        lambda s: s - s % disk.geometry.sectors_per_track
                    ),
                    max_size=3,
                ),
            )
        )

        per_track = disk.geometry.sectors_per_track

        def some_tracks_dead(sector, count, breakdown):
            if sector - sector % per_track in dead_tracks:
                return None
            return disk.peek(sector, count)

        reader = None if dead_tracks is None else some_tracks_dead
        found, held, zero_filled, _cost, examined = scan_records(
            disk,
            block_size,
            skip_sectors=skip_sectors,
            reader=reader or disk_reader(disk),
        )
        want_found, want_examined, want_zero_filled = _reference_scan(
            disk, block_size, skip_sectors, reader
        )
        _assert_matches_the_reference(
            disk, sectors_per_block, found, held, want_found
        )
        assert examined == want_examined
        assert zero_filled == want_zero_filled

    def test_reference_and_sieve_agree_on_a_real_log(self):
        """The same comparison on an image a VLD actually wrote (512-byte
        map sectors among 4 KB data blocks, on the full-size geometry)."""
        disk = Disk(ST19101, num_cylinders=2)
        vld = VirtualLogDisk(disk)
        rng = random.Random(3)
        for _ in range(150):
            vld.write_block(
                rng.randrange(vld.num_blocks // 2),
                MAGIC * (vld.block_size // len(MAGIC)),
            )
        found, held, zero_filled, _cost, examined = scan_records(
            disk, vld.map_record_bytes, 8, reader=disk_reader(disk)
        )
        want_found, want_examined, _zero_filled = _reference_scan(
            disk, vld.map_record_bytes, 8, None
        )
        assert len(found) > 20 and zero_filled == []
        _assert_matches_the_reference(disk, 1, found, held, want_found)
        assert examined == want_examined == disk.total_sectors - 8


# ======================================================================
# Sim identity: recovery costs exactly what it cost before the sieve
# ======================================================================

#: Recorded at the commit before the sieve scan landed, by running
#: ``_recovery_cycles(5)`` there; re-recorded on purpose, under
#: PYTHONHASHSEED 0, 1 and random, when the traversal stopped expanding
#: superseded map records (fewer records read), and again when the walk
#: began taking the scan's records and reading children in access-time
#: order (same records, less time).  Per cycle: the outer
#: ``recover()``'s elapsed, the VLD's own elapsed, scanned,
#: blocks_scanned, records_read, the disk's counters (reads, writes,
#: sectors_read, sectors_written, busy_time) and its clock.  Cycles
#: alternate bare VLD / NVWal->VLD and, every two, power-down record /
#: full scan.
_GOLDEN_RECOVERY_CYCLES = [
    (0.029999999999999995, 0.029999999999999995, False, 0, 9,
     (10, 82, 17, 376, 0.05418749999999994), 0.10818749999999999),
    (0.030000000000000002, 0.029999391833333333, False, 0, 6,
     (7, 81, 14, 375, 0.053206586833333264), 0.0961875),
    (0.22469531250000002, 0.22469531250000002, True, 8184, 9,
     (62, 187, 8369, 901, 0.3501875000000001), 0.40818750000000004),
    (0.2326834575000003, 0.22389209116666692, True, 8184, 7,
     (54, 177, 8326, 849, 0.33403789050000054), 0.380953783),
    (0.03600000000000022, 0.03600000000000022, False, 0, 8,
     (92, 295, 8553, 1450, 0.4601875000000005), 0.5221875),
    (0.024000000000000025, 0.02399939183333336, False, 0, 7,
     (71, 269, 8413, 1291, 0.4173611033333343), 0.46818750000000003),
    (0.22814062500000187, 0.22814062500000187, True, 8184, 13,
     (137, 392, 16849, 1918, 0.756187500000001), 0.8221875000000001),
    (0.23535533250000212, 0.22386865366666842, True, 8184, 7,
     (110, 358, 16661, 1702, 0.7007877195000014), 0.7556490954999999),
]


def _recovery_cycles(seed, cycles=8, writes=40):
    rng = random.Random(seed)
    bare = VirtualLogDisk(Disk(ST19101, num_cylinders=2))
    backing = VirtualLogDisk(Disk(ST19101, num_cylinders=2))
    devices = [bare, NVWal(backing)]
    disks = [bare.disk, backing.disk]
    rows = []
    for cycle in range(cycles):
        index, orderly = cycle % 2, (cycle // 2) % 2 == 0
        device, disk = devices[index], disks[index]
        for i in range(writes):
            lba = rng.randrange(bare.num_blocks // 2)
            device.write_block(lba, bytes([rng.randrange(256)]) * 4096)
            if i == writes // 2:
                device.idle(0.05)  # lets the NVWal destage into its VLD
        if orderly:
            device.power_down()
        device.crash()
        outcome = device.recover()
        inner = outcome.inner if index else outcome
        rows.append(
            (
                outcome.elapsed,
                inner.elapsed,
                inner.scanned,
                inner.blocks_scanned,
                inner.records_read,
                tuple(op_counts(disk).values()),
                disk.clock.now,
            )
        )
    return rows


class TestRecoverySimIdentity:
    def test_seeded_cycles_cost_exactly_what_they_did(self):
        """Bare VLD and NVWal->VLD, by power-down record and by scan:
        every simulated quantity is bit-identical to the recorded run --
        the recovery speed work may change host time only."""
        rows = _recovery_cycles(5)
        assert [row[2] for row in rows] == [False, False, True, True] * 2
        assert rows == _GOLDEN_RECOVERY_CYCLES


class TestFoldOutcomes:
    """The one rule a device built of recoverable parts answers with:
    record = all, flags = any, counts and cost = sum."""

    def test_three_outcomes_fold_all_any_sum(self):
        parts = [
            RecoveryOutcome(
                used_power_down_record=True, scanned=False, records_read=3,
                breakdown=Breakdown(transfer=0.5, locate=0.25),
                quarantined_sectors=2,
            ),
            RecoveryOutcome(
                used_power_down_record=False, scanned=True, records_read=4,
                blocks_scanned=100, breakdown=Breakdown(transfer=1.0),
                degraded=True, media_errors=1, conservatively_quarantined=5,
            ),
            RecoveryOutcome(
                used_power_down_record=True, scanned=False, records_read=5,
                breakdown=Breakdown(other=0.125), replayed_records=7,
                replayed_blocks=6, replayed_trims=1, torn_tail=True,
            ),
        ]
        folded = fold_outcomes(parts)
        assert folded == RecoveryOutcome(
            used_power_down_record=False,  # all
            scanned=True, degraded=True, torn_tail=True,  # any
            reconstructed=False,
            records_read=12, blocks_scanned=100, media_errors=1,  # sum
            quarantined_sectors=2, conservatively_quarantined=5,
            replayed_records=7, replayed_blocks=6, replayed_trims=1,
            breakdown=Breakdown(transfer=1.5, locate=0.25, other=0.125),
            parts=parts,
        )
        assert folded.elapsed == 1.875
        assert folded.inner is None  # several parts: no single one beneath
        assert fold_outcomes(parts[::2]).used_power_down_record

    def test_one_outcome_folds_to_equal_fields(self):
        only = RecoveryOutcome(
            used_power_down_record=True, scanned=False, records_read=9,
            breakdown=Breakdown(scsi=0.1, transfer=0.2), media_errors=2,
        )
        folded = fold_outcomes([only])
        assert folded is not only and folded.inner is only
        assert folded.breakdown is not only.breakdown
        folded.parts = []
        assert folded == only

    def test_folding_nothing_is_a_device_with_no_recovery(self):
        folded = fold_outcomes([])
        assert folded == RecoveryOutcome(
            used_power_down_record=False, scanned=False, records_read=0
        )
        assert folded.inner is None and folded.elapsed == 0.0


class TestTailGeometryValidation:
    """A CRC-valid power-down record must still name a tail on the disk."""

    def test_tail_beyond_disk_rejected(self, disk):
        store = PowerDownStore(disk, 0, 4096, tail_block_sectors=1)
        store.write(disk.total_sectors, 3)
        record = _read_record(store)
        assert record is None

    def test_boundary_tail_blocks(self, disk):
        store = PowerDownStore(disk, 0, 4096, tail_block_sectors=8)
        last_valid = disk.total_sectors // 8 - 1
        store.write(last_valid, 3)
        assert _read_record(store) == (last_valid, 3)
        store.write(last_valid + 1, 3)
        assert _read_record(store) is None

    def test_vld_falls_back_to_scan_on_bogus_tail(self):
        """End to end: a planted out-of-range (but checksummed) record must
        route recovery through the scan path, not crash the traversal."""
        from repro.vlog.vld import VirtualLogDisk

        disk = Disk(ST19101, num_cylinders=2)
        vld = VirtualLogDisk(disk)
        payload = b"\x5a" * vld.block_size
        vld.write_block(0, payload)
        vld.write_block(1, b"\xa5" * vld.block_size)
        # Firmware scribble: CRC-valid record pointing far past the disk.
        vld.power_store.write(10**9, 999)
        vld.crash()
        outcome = vld.recover()
        assert outcome.scanned
        assert not outcome.used_power_down_record
        assert vld.read_block(0)[0] == payload


class TestUnreadableTailMediaError:
    """A *valid* power-down record whose named tail block then fails with
    a media error (not CRC corruption) must fall back to the scan."""

    def test_valid_record_dead_tail_block_recovers_by_scan(self):
        from repro.blockdev.interpose import FaultPlane
        from repro.vlog.vld import VirtualLogDisk

        disk = Disk(ST19101, num_cylinders=2)
        vld = VirtualLogDisk(disk)
        for lba in range(6):
            vld.write_block(lba, bytes([lba + 1]) * vld.block_size)
        vld.power_down()
        tail_sector = vld.vlog.tail * vld.vlog.sectors_per_block
        vld.crash()
        # The record is intact; only the tail block's media has died.
        FaultPlane(bad_sectors={tail_sector}).install(disk)
        outcome = vld.recover()
        assert outcome.used_power_down_record  # the record itself parsed
        assert outcome.scanned  # ... but the traversal had to re-seed
        assert outcome.degraded
        assert outcome.media_errors > 0
        # The dead record held the youngest chunk-0 state; the scan
        # recovers the youngest *readable* records, so at most that one
        # chunk's final update is stale -- and the device serves reads.
        for lba in range(6):
            data, _ = vld.read_block(lba)
            assert len(data) == vld.block_size

    def test_nonresilient_vld_scan_fallback_still_works(self):
        """The same situation with the tail block *corrupt* rather than
        erroring (no retry helps, the record simply does not parse)
        routes through the scan too.  (Named for the VLD without a
        resilience layer it first ran against; there is one VLD now.)"""
        from repro.vlog.vld import VirtualLogDisk

        disk = Disk(ST19101, num_cylinders=2)
        vld = VirtualLogDisk(disk)
        for lba in range(4):
            vld.write_block(lba, bytes([lba + 1]) * vld.block_size)
        vld.power_down()
        tail_sector = vld.vlog.tail * vld.vlog.sectors_per_block
        vld.crash()
        raw = bytearray(disk.peek(tail_sector, 1))
        raw[20] ^= 0xFF  # corrupt the record body: CRC now fails
        poke(disk, tail_sector, bytes(raw))
        outcome = vld.recover()
        assert outcome.used_power_down_record
        assert outcome.scanned
        for lba in range(4):
            data, _ = vld.read_block(lba)
            assert len(data) == vld.block_size


@pytest.mark.parametrize("seed", SCAN_LOST_THE_TAIL)
def test_the_scan_names_the_tail_slot_it_zero_filled(seed, monkeypatch):
    """The flaky-tail histories whose scan could not read the tail's slot
    through its retries: the scan settles for an older tail, and names
    that slot -- the one sector the history made flaky -- as the only one
    it zero-filled."""
    # The history without the fault, to learn where its tail sits.
    vld = VirtualLogDisk(Disk(ST19101, num_cylinders=3))
    rng = random.Random(seed)
    for _ in range(60):
        lba, tag = rng.randrange(200), rng.randrange(1, 256)
        vld.write_block(lba, bytes([tag]) * vld.block_size)
    tail_slot = (vld.vlog.tail * vld.vlog.sectors_per_block, 1)

    zero_filled = []

    def spy(*args, **kwargs):
        result = scan_records(*args, **kwargs)
        zero_filled.extend(result[2])
        return result

    monkeypatch.setattr(recovery, "scan_records", spy)
    vld, outcome, _acked = _flaky_tail_recovery(seed, power_down=False)
    assert outcome.scanned and outcome.degraded
    assert zero_filled == [tail_slot]


class TestPowerDownWithPendingQueue:
    """power_down() at queue depth > 1: the barrier at the top of
    power_down ("nothing may outlive the queue") must push every request
    still sitting in the scheduler to the media *before* the power-down
    record is written.  Without it, an orderly shutdown would silently
    drop queued writes -- crash() discards pending requests, and the
    power record would bless a state the media never reached."""

    def _vld_depth4(self):
        from repro.vlog.vld import VirtualLogDisk

        disk = Disk(ST19101, num_cylinders=2)
        return VirtualLogDisk(disk, queue_depth=4, sched="satf")

    def test_depth4_pending_writes_land_before_power_record(self):
        vld = self._vld_depth4()
        spb = vld.sectors_per_block
        # Establish mappings the normal way (each write_block barriers
        # internally before its map commit, so the queue is empty now).
        for lba in range(6):
            vld.write_block(lba, bytes([0x10 + lba]) * vld.block_size)
        assert vld.scheduler.outstanding == 0
        # Overwrite three mapped physical blocks in place, straight
        # through the scheduler, staying below the queue depth: these
        # requests are genuinely *pending* -- nothing has serviced them.
        updated = {}
        for lba in (1, 3, 5):
            physical = vld.imap.get(lba)
            assert physical is not None
            payload = bytes([0xA0 + lba]) * vld.block_size
            vld.scheduler.write(
                physical * spb, spb, payload, charge_scsi=False
            )
            updated[lba] = payload
        assert vld.scheduler.outstanding == len(updated)
        vld.power_down()
        # The barrier drained the queue before the power record went out.
        assert vld.scheduler.outstanding == 0
        vld.crash()
        outcome = vld.recover()
        assert outcome.used_power_down_record
        assert not outcome.scanned
        # The in-place overwrites reached the media under the existing
        # mappings; a dropped queue would read back the 0x10-series data.
        for lba, payload in updated.items():
            assert vld.read_block(lba)[0] == payload

    def test_depth4_crash_without_power_down_drops_pending(self):
        """The inverse: a *crash* with requests pending loses exactly
        those requests -- pinning that the power_down test above is
        actually exercising the barrier, not a scheduler that flushes
        eagerly on its own."""
        vld = self._vld_depth4()
        spb = vld.sectors_per_block
        for lba in range(6):
            vld.write_block(lba, bytes([0x10 + lba]) * vld.block_size)
        physical = vld.imap.get(3)
        vld.scheduler.write(
            physical * spb, spb, b"\xEE" * vld.block_size, charge_scsi=False
        )
        assert vld.scheduler.outstanding == 1
        vld.crash()  # discards the pending overwrite
        outcome = vld.recover()
        assert outcome.scanned
        assert vld.read_block(3)[0] == bytes([0x13]) * vld.block_size
