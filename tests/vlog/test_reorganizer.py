"""The idle-time read-locality reorganizer (Section 3.4's future work)."""

import random

import pytest

from repro.disk.cache import ReadAheadPolicy
from repro.disk.disk import Disk
from repro.disk.specs import ST19101
from repro.vlog.reorganizer import ReadReorganizer
from repro.vlog.vld import VirtualLogDisk


@pytest.fixture
def vld():
    return VirtualLogDisk(
        Disk(ST19101, readahead=ReadAheadPolicy.FULL_TRACK)
    )


def scatter(vld, nblocks=512, seed=9):
    """Sequential file written, then randomly overwritten: logically
    sequential, physically scattered."""
    rng = random.Random(seed)
    contents = {}
    for lba in range(nblocks):
        payload = bytes([lba % 251]) * 4096
        vld.write_block(lba, payload)
        contents[lba] = payload
    for _ in range(nblocks * 2):
        lba = rng.randrange(nblocks)
        payload = bytes([(lba * 7) % 251]) * 4096
        vld.write_block(lba, payload)
        contents[lba] = payload
    return contents


def seq_read_time(vld, nblocks):
    start = vld.disk.clock.now
    vld.read_blocks(0, nblocks)
    return vld.disk.clock.now - start


class TestReorganizer:
    def test_preserves_contents(self, vld):
        contents = scatter(vld, nblocks=256)
        ReadReorganizer(vld).run_for(5.0)
        for lba, payload in contents.items():
            data, _ = vld.read_block(lba)
            assert data == payload, f"lba {lba}"

    def test_restores_physical_contiguity(self, vld):
        scatter(vld, nblocks=256)
        reorganizer = ReadReorganizer(vld)

        def total_breaks():
            return sum(
                reorganizer._window_fragmentation(w * reorganizer.window_blocks)
                for w in range(256 // reorganizer.window_blocks)
            )

        before = total_breaks()
        reorganizer.run_for(5.0)
        after = total_breaks()
        assert reorganizer.windows_reorganized > 0
        assert after < before / 2

    def test_improves_sequential_read_time(self, vld):
        nblocks = 512
        scatter(vld, nblocks=nblocks)
        before = seq_read_time(vld, nblocks)
        ReadReorganizer(vld).run_for(10.0)
        vld.disk.cache.invalidate()
        after = seq_read_time(vld, nblocks)
        assert after < before * 0.8

    def test_respects_time_budget(self, vld):
        scatter(vld, nblocks=256)
        clock = vld.disk.clock
        start = clock.now
        used = ReadReorganizer(vld).run_for(0.05)
        assert clock.now - start == pytest.approx(used)
        assert used < 0.05 + 0.2  # one window move of overshoot at most

    def test_noop_on_already_sequential_data(self, vld):
        for lba in range(128):
            vld.write_block(lba, bytes([lba % 251]) * 4096)
        reorganizer = ReadReorganizer(vld)
        reorganizer.run_for(1.0)
        # Track-fill allocation already laid this out nearly sequential;
        # at most a couple of windows need touching.
        assert reorganizer.windows_reorganized <= 3

    def test_invariants_and_recovery_after_reorg(self, vld):
        contents = scatter(vld, nblocks=256)
        ReadReorganizer(vld).run_for(5.0)
        vld.vlog.check_invariants()
        vld.power_down()
        vld.crash()
        vld.recover()
        for lba, payload in contents.items():
            data, _ = vld.read_block(lba)
            assert data == payload

    def test_negative_budget_rejected(self, vld):
        with pytest.raises(ValueError):
            ReadReorganizer(vld).run_for(-1.0)

    def test_composes_with_compactor(self, vld):
        """Compaction creates empty tracks; reorganization consumes them
        for contiguous extents."""
        contents = scatter(vld, nblocks=400)
        vld.compactor.run_for(2.0)
        reorganizer = ReadReorganizer(vld)
        reorganizer.run_for(5.0)
        assert reorganizer.windows_reorganized > 0
        for lba, payload in contents.items():
            data, _ = vld.read_block(lba)
            assert data == payload
