"""The idle-time free-space compactor (Sections 2.3, 4.2, 5.5)."""

import random

import pytest

from repro.disk.disk import Disk
from repro.disk.specs import ST19101
from repro.vlog.compactor import FreeSpaceCompactor
from repro.vlog.vld import VirtualLogDisk
from tests.vlog.test_recovery import _read_record


@pytest.fixture
def vld():
    return VirtualLogDisk(Disk(ST19101))


def fragment(vld, seed=3, fill=0.6, holes=0.5):
    """Write a lot, then trim random blocks to punch holes everywhere."""
    rng = random.Random(seed)
    n = int(vld.num_blocks * fill)
    contents = {}
    for lba in range(n):
        payload = bytes([rng.randrange(256)]) * 4096
        vld.write_block(lba, payload)
        contents[lba] = payload
    for lba in rng.sample(range(n), int(n * holes)):
        vld.trim(lba)
        del contents[lba]
    return contents


class TestCompaction:
    def test_generates_empty_tracks(self, vld):
        fragment(vld)
        geometry = vld.disk.geometry
        per_track = geometry.sectors_per_track

        def empty_tracks():
            count = 0
            for cylinder in range(geometry.num_cylinders):
                for head in range(geometry.tracks_per_cylinder):
                    if vld.freemap.track_free_count(cylinder, head) == per_track:
                        count += 1
            return count

        before = empty_tracks()
        compactor = FreeSpaceCompactor(vld)
        compactor.run_for(3.0)
        assert compactor.blocks_moved > 0
        assert empty_tracks() > before

    def test_preserves_contents(self, vld):
        contents = fragment(vld)
        FreeSpaceCompactor(vld).run_for(3.0)
        for lba, payload in contents.items():
            data, _ = vld.read_block(lba)
            assert data == payload, f"lba {lba} corrupted by compaction"

    def test_respects_time_budget(self, vld):
        fragment(vld)
        clock = vld.disk.clock
        start = clock.now
        used = FreeSpaceCompactor(vld).run_for(0.05)
        # One track move may slightly overshoot, but not wildly.
        assert used <= 0.05 + 0.1
        assert clock.now - start == pytest.approx(used)

    def test_zero_budget_does_nothing(self, vld):
        fragment(vld)
        compactor = FreeSpaceCompactor(vld)
        assert compactor.run_for(0.0) == 0.0
        assert compactor.blocks_moved == 0

    def test_negative_budget_rejected(self, vld):
        with pytest.raises(ValueError):
            FreeSpaceCompactor(vld).run_for(-1.0)

    def test_idle_on_empty_disk_is_harmless(self, vld):
        used = FreeSpaceCompactor(vld).run_for(1.0)
        assert used < 1.0  # nothing to compact: gives the time back

    def test_never_allocates_power_down_block(self, vld):
        fragment(vld)
        vld.power_down()
        FreeSpaceCompactor(vld).run_for(2.0)
        # The record may be *cleared* (compaction invalidates a stale
        # power-down record), but its home block is never reallocated.
        raw = vld.disk.peek(0, 8)
        record = _read_record(vld.power_store)
        assert record is not None or raw == bytes(4096)
        assert not vld.freemap.run_is_free(0, 8)
        assert 0 not in vld.reverse

    def test_invariants_hold_after_compaction(self, vld):
        fragment(vld)
        FreeSpaceCompactor(vld).run_for(2.0)
        vld.vlog.check_invariants()
        for _lba, physical in vld.imap.items():
            assert not vld.freemap.run_is_free(physical * 8, 8)

    def test_recovery_after_compaction(self, vld):
        contents = fragment(vld)
        FreeSpaceCompactor(vld).run_for(2.0)
        vld.power_down()
        vld.crash()
        vld.recover()
        for lba, payload in contents.items():
            data, _ = vld.read_block(lba)
            assert data == payload


class TestCompactionImprovesLatency:
    def test_writes_faster_after_compaction_at_high_utilization(self, vld):
        """Section 5.5 / Figure 11: idle-time compaction lowers subsequent
        eager-write latency."""
        rng = random.Random(17)
        fragment(vld, fill=0.9, holes=0.35)

        def mean_write_latency(samples=60):
            total = 0.0
            for _ in range(samples):
                lba = rng.randrange(int(vld.num_blocks * 0.5))
                total += vld.write_block(lba, b"m" * 4096).total
            return total / samples

        before = mean_write_latency()
        vld.idle(3.0)
        after = mean_write_latency()
        assert after <= before * 1.1  # never worse; usually better


class TestDeviceIdleHook:
    def test_idle_runs_compactor_and_passes_time(self, vld):
        fragment(vld)
        start = vld.disk.clock.now
        vld.idle(1.0)
        # At least the full idle interval passes; a mid-track move may
        # overshoot slightly.
        assert start + 1.0 <= vld.disk.clock.now <= start + 1.2
        assert vld.compactor.blocks_moved > 0

    def test_idle_with_compaction_disabled(self, vld):
        fragment(vld)
        vld.compaction_enabled = False
        start = vld.disk.clock.now
        vld.idle(0.5)
        assert vld.disk.clock.now == pytest.approx(start + 0.5)
        assert vld.compactor.blocks_moved == 0
