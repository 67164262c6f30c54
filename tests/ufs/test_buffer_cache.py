import pytest

from repro.blockdev.regular import RegularDisk
from repro.disk.disk import Disk
from repro.disk.specs import ST19101
from repro.ufs.buffer_cache import BufferCache


@pytest.fixture
def device():
    return RegularDisk(Disk(ST19101, num_cylinders=2))


@pytest.fixture
def cache(device):
    return BufferCache(device, capacity_bytes=64 * 4096)


class TestReadPath:
    def test_miss_then_hit(self, cache, device):
        device.write_block(5, b"\x05" * 4096)
        data, first = cache.read(5)
        assert data == b"\x05" * 4096
        assert first.total > 0
        data, second = cache.read(5)
        assert data == b"\x05" * 4096
        assert second.total == 0.0
        assert cache.hits == 1 and cache.misses == 1

    def test_populate_run_prefetches(self, cache, device):
        for lba in range(8):
            device.write_block(lba, bytes([lba]) * 4096)
        cache.populate_run(0, 8)
        for lba in range(8):
            data, cost = cache.read(lba)
            assert data == bytes([lba]) * 4096
            assert cost.total == 0.0

    def test_populate_run_keeps_dirty_copies(self, cache, device):
        cache.write(3, b"dirty" + bytes(4091), sync=False)
        cache.populate_run(0, 8)
        data, _ = cache.read(3)
        assert data.startswith(b"dirty")


class TestWritePath:
    def test_sync_write_reaches_device(self, cache, device):
        cost = cache.write(7, b"\x07" * 4096, sync=True)
        assert cost.total > 0
        assert 7 in cache and cache.dirty_blocks == 0
        data, _ = device.read_block(7)
        assert data == b"\x07" * 4096

    def test_async_write_stays_in_cache(self, cache, device):
        cost = cache.write(7, b"\x07" * 4096, sync=False)
        assert cost.total == 0.0
        assert 7 in cache and cache.dirty_blocks == 1
        data, _ = device.read_block(7)
        assert data == bytes(4096)  # not flushed yet

    def test_flush_block(self, cache, device):
        cache.write(7, b"\x07" * 4096, sync=False)
        cache.flush_block(7)
        assert 7 in cache and cache.dirty_blocks == 0
        data, _ = device.read_block(7)
        assert data == b"\x07" * 4096

    def test_flush_coalesces_contiguous_runs(self, cache, device):
        for lba in (10, 11, 12, 20):
            cache.write(lba, bytes([lba]) * 4096, sync=False)
        writes_before = device.disk.counters.writes
        cache.flush()
        assert device.disk.counters.writes - writes_before == 2  # [10..12] + [20]
        assert cache.dirty_blocks == 0

    def test_wrong_size_rejected(self, cache):
        with pytest.raises(ValueError):
            cache.write(0, b"small", sync=False)


class TestPartialWrites:
    def test_sync_partial_reaches_device(self, cache, device):
        device.write_block(4, b"\xaa" * 4096)
        cache.write_partial(4, 1024, b"\xbb" * 1024, sync=True)
        data, _ = device.read_block(4)
        assert data[1024:2048] == b"\xbb" * 1024
        assert data[:1024] == b"\xaa" * 1024

    def test_async_partial_merges_in_cache(self, cache, device):
        device.write_block(4, b"\xaa" * 4096)
        cache.write_partial(4, 0, b"\xcc" * 1024, sync=False)
        data, _ = cache.read(4)
        assert data[:1024] == b"\xcc" * 1024
        assert data[1024:] == b"\xaa" * 3072
        assert 4 in cache and cache.dirty_blocks == 1

    def test_fresh_partial_skips_read(self, cache, device):
        cost = cache.write_partial(4, 0, b"\xdd" * 1024, sync=False,
                                   fresh=True)
        assert cost.total == 0.0
        data, _ = cache.read(4)
        assert data[:1024] == b"\xdd" * 1024

    def test_uncached_partial_reads_before_merge(self, cache, device):
        device.write_block(4, b"\xaa" * 4096)
        cost = cache.write_partial(4, 0, b"\xee" * 1024, sync=False)
        assert cost.total > 0  # had to fetch the block first

    def test_overflow_rejected(self, cache):
        with pytest.raises(ValueError):
            cache.write_partial(0, 4000, b"\x00" * 1024, sync=False)

    @pytest.mark.parametrize("sync", [False, True])
    def test_negative_offset_rejected(self, cache, device, sync):
        """A range that starts before the block is refused before the
        cache or the device is touched."""
        device.write_block(4, b"\xaa" * 4096)
        with pytest.raises(ValueError):
            cache.write_partial(5, -512, b"\xbb" * 1024, sync=sync)
        assert 5 not in cache and cache.dirty_blocks == 0
        assert device.read_block(4)[0] == b"\xaa" * 4096
        assert device.read_block(5)[0] == bytes(4096)


class TestEviction:
    def test_evicting_dirty_blocks_writes_them(self, device):
        cache = BufferCache(device, capacity_bytes=4 * 4096)
        for lba in range(8):
            cache.write(lba, bytes([lba]) * 4096, sync=False)
        # Earlier blocks were evicted and must have hit the device.
        data, _ = device.read_block(0)
        assert data == bytes([0]) * 4096

    def test_drop_clean_keeps_dirty(self, cache):
        cache.write(1, b"\x01" * 4096, sync=True)
        cache.write(2, b"\x02" * 4096, sync=False)
        cache.drop_clean()
        assert 1 not in cache
        assert 2 in cache

    def test_invalidate(self, cache):
        cache.write(9, b"\x09" * 4096, sync=False)
        cache.forget(9)
        assert 9 not in cache and cache.dirty_blocks == 0

    def test_capacity_must_hold_one_block(self, device):
        with pytest.raises(ValueError):
            BufferCache(device, capacity_bytes=100)
