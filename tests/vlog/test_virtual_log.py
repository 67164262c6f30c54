"""The tree-structured virtual log: append, overwrite, recycle, recover."""

import random

import pytest

from repro.disk.disk import Disk
from repro.disk.freemap import FreeSpaceMap
from repro.disk.specs import ST19101
from repro.vlog.allocator import AllocationPolicy, EagerAllocator
from repro.vlog.recovery import disk_reader
from repro.vlog.virtual_log import VirtualLog
from repro.vlog.vld import VirtualLogDisk
from tests._media import poke


def _recover(vlog, tail):
    return vlog.recover_from_tail(tail, disk_reader(vlog.disk))


class Harness:
    """A virtual log over a small disk with a dict of chunk contents."""

    def __init__(self, seed=0):
        self.disk = Disk(ST19101, num_cylinders=3)
        self.freemap = FreeSpaceMap(self.disk.geometry)
        self.allocator = EagerAllocator(
            self.disk, self.freemap, 8, AllocationPolicy.NEAREST
        )
        self.chunks = {}
        self.vlog = VirtualLog(
            self.disk, self.allocator, lambda c: self.chunks[c], 4096
        )
        self.rng = random.Random(seed)

    def write_chunk(self, chunk_id, entries):
        self.chunks[chunk_id] = list(entries)
        return self.vlog.append(chunk_id, self.chunks[chunk_id])


@pytest.fixture
def h():
    return Harness()


class TestAppend:
    def test_first_append_sets_tail(self, h):
        h.write_chunk(0, [1, 2, 3])
        assert h.vlog.tail is not None
        assert h.vlog.location_of(0) == h.vlog.tail

    def test_appends_chain_backwards(self, h):
        h.write_chunk(0, [1])
        first_tail = h.vlog.tail
        h.write_chunk(1, [2])
        assert h.vlog.tail != first_tail
        h.vlog.check_invariants()

    def test_overwrite_recycles_old_block(self, h):
        h.write_chunk(0, [1])
        old = h.vlog.location_of(0)
        h.write_chunk(0, [2])
        assert h.vlog.location_of(0) != old
        assert h.freemap.run_is_free(old * 8, 8)

    def test_one_io_per_overwrite(self, h):
        """Section 3.2: 'overwriting a map entry requires only one disk
        I/O to create the new log tail' (absent orphan overflow)."""
        h.write_chunk(0, [1])
        h.write_chunk(1, [1])
        writes_before = h.disk.counters.writes
        h.write_chunk(0, [2])
        assert h.disk.counters.writes == writes_before + 1

    def test_relocate_moves_record(self, h):
        h.write_chunk(0, [5])
        old = h.vlog.location_of(0)
        h.vlog.relocate(0)
        assert h.vlog.location_of(0) != old
        h.vlog.check_invariants()

    def test_relocate_unknown_chunk_rejected(self, h):
        with pytest.raises(KeyError):
            h.vlog.relocate(42)

    def test_live_blocks_tracks_current_records(self, h):
        for chunk in range(5):
            h.write_chunk(chunk, [chunk])
        assert len(h.vlog.live_blocks()) == 5
        assert h.vlog.chunk_of_block(h.vlog.location_of(3)) == 3
        assert h.vlog.chunk_of_block(999999 % h.disk.total_sectors) in (
            None,
            *range(5),
        )

    def test_rejected_append_costs_nothing(self):
        """One entry over capacity is refused before the record is given
        a home: it used to be refused after ``allocate()`` and the
        sequence-number bump, leaving a used sector no record owned
        (given back only by the next recovery's space rebuild)."""
        vld = VirtualLogDisk(Disk(ST19101))
        vld.write_block(0, b"\x11" * vld.block_size)
        vld.power_down()  # armed: a refused append must not erase it either
        capacity = vld.imap.chunk_capacity

        def state():
            return (
                vld.freemap.free_sectors,
                vld.vlog.next_seqno,
                vld.map_allocator.allocations,
                vld.vlog.appends,
                vld.vlog.tail,
                vld.power_store.armed,
                vld.disk.clock.now,
                vld.disk.counters.writes,
            )

        before = state()
        with pytest.raises(
            ValueError, match=f"{capacity + 1} entries exceed capacity {capacity}"
        ):
            vld.vlog.append(0, [1] * (capacity + 1))
        assert state() == before
        vld.vlog.check_invariants()
        # The log is none the worse: the next valid append lands, takes
        # the sequence number the refused one did not, and recovers.
        seqno = vld.vlog.next_seqno
        vld.write_block(1, b"\x22" * vld.block_size)
        assert vld.vlog.next_seqno == seqno + 1
        assert not vld.power_store.armed
        free = vld.freemap.free_sectors
        vld.crash()
        vld.recover()
        assert vld.freemap.free_sectors == free  # nothing was leaked
        assert vld.read_block(0)[0] == b"\x11" * vld.block_size
        assert vld.read_block(1)[0] == b"\x22" * vld.block_size
        vld.vlog.check_invariants()


class TestInvariants:
    def test_random_workload_preserves_invariants(self, h):
        for step in range(400):
            chunk = h.rng.randrange(8)
            h.write_chunk(chunk, [h.rng.randrange(1000)])
            if step % 25 == 0:
                h.vlog.check_invariants()
        h.vlog.check_invariants()

    def test_block_reuse_does_not_resurrect_edges(self, h):
        """A freed record block recycled for a new record must not inherit
        stale in-edges (the bug class the in-edge purge exists for)."""
        for step in range(200):
            h.write_chunk(step % 3, [step])
        h.vlog.check_invariants()
        # Every chunk's location is distinct and live.
        locations = [h.vlog.location_of(c) for c in range(3)]
        assert len(set(locations)) == 3


class TestRecovery:
    def test_recovers_latest_chunk_contents(self, h):
        for step in range(60):
            h.write_chunk(step % 4, [step, step + 1])
        expected = {c: list(h.chunks[c]) for c in range(4)}
        tail = h.vlog.tail
        chunks, _cost, _n = _recover(h.vlog, tail)
        assert chunks == expected

    def test_recovery_rebuilds_operational_state(self, h):
        for step in range(30):
            h.write_chunk(step % 3, [step])
        tail = h.vlog.tail
        _recover(h.vlog, tail)
        h.vlog.repair_reachability()  # the owner's step after recovery
        h.vlog.check_invariants()
        # The log keeps working after recovery.
        h.write_chunk(1, [999])
        h.vlog.check_invariants()
        chunks, _, _ = _recover(h.vlog, h.vlog.tail)
        assert chunks[1] == [999]

    def test_recovery_ignores_stale_versions(self, h):
        h.write_chunk(0, [1])
        h.write_chunk(1, [2])
        h.write_chunk(0, [3])  # supersedes [1]
        chunks, _, _ = _recover(h.vlog, h.vlog.tail)
        assert chunks[0] == [3]

    def test_recovery_prunes_recycled_blocks(self, h):
        """Pointers into blocks recycled for *data* must be pruned by
        checksum validation."""
        for step in range(40):
            h.write_chunk(step % 4, [step])
        # Smash every free block with garbage, as reuse for data would.
        for block in range(h.disk.total_sectors // 8):
            if h.freemap.run_is_free(block * 8, 8):
                poke(h.disk, block * 8, b"\xcd" * 4096)
        chunks, _, _ = _recover(h.vlog, h.vlog.tail)
        assert chunks == {c: list(h.chunks[c]) for c in range(4)}

    def test_recovery_from_non_record_block_fails(self, h):
        h.write_chunk(0, [1])
        free_block = next(
            b
            for b in range(h.disk.total_sectors // 8)
            if h.freemap.run_is_free(b * 8, 8)
        )
        with pytest.raises(ValueError):
            _recover(h.vlog, free_block)

    def test_timed_recovery_charges_disk_time(self, h):
        for step in range(20):
            h.write_chunk(step % 2, [step])
        before = h.disk.clock.now
        _, cost, records = _recover(h.vlog, h.vlog.tail)
        assert records >= 2
        assert cost.total > 0.0
        assert h.disk.clock.now > before

    def test_recovery_reads_bounded_by_live_records(self, h):
        """Recovery must not scan the disk: reads scale with live records
        (plus pruned stale edges), not device size."""
        for step in range(100):
            h.write_chunk(step % 5, [step])
        reads_before = h.disk.counters.reads
        _recover(h.vlog, h.vlog.tail)
        reads = h.disk.counters.reads - reads_before
        assert reads < 40  # 5 live + pruned frontier, not ~1500 blocks


def test_the_smallest_known_overflow_recovers_exactly():
    """The overflow branch of ``VirtualLog.append``, by a named history.

    On the setup of
    ``tests/properties/test_properties.py::test_virtual_log_recovers_exactly_after_any_history``
    (ST19101, two cylinders, NEAREST, 4 KB records), appending chunks
    0, 1, 2, 1, 3, 1, 4, 1 leaves the last append with more orphans than
    pointer slots: it is the first such history an exhaustive walk of
    histories over five chunks finds, with the first chunk fixed to 0.
    One overflow chunk is appended afresh, and the log still recovers
    exactly from its tail.
    """
    disk = Disk(ST19101, num_cylinders=2)
    freemap = FreeSpaceMap(disk.geometry)
    allocator = EagerAllocator(disk, freemap, 8, AllocationPolicy.NEAREST)
    chunks = {}
    vlog = VirtualLog(disk, allocator, lambda c: chunks[c], 4096)
    for step, chunk_id in enumerate((0, 1, 2, 1, 3, 1, 4)):
        chunks[chunk_id] = [step, step + 1]
        vlog.append(chunk_id, chunks[chunk_id])
    assert vlog.relocations == 0
    chunks[1] = [7, 8]
    vlog.append(1, chunks[1])
    assert vlog.relocations == 1
    vlog.check_invariants()
    recovered, _cost, _n = _recover(vlog, vlog.tail)
    assert recovered == chunks
