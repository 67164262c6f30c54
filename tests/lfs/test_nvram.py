import pytest

from repro.lfs.nvram import FileCache


@pytest.fixture
def cache():
    return FileCache(capacity_bytes=16 * 4096, block_size=4096)


class TestBasics:
    def test_miss_returns_none(self, cache):
        assert cache.get((1, 0)) is None
        assert cache.misses == 1

    def test_put_get(self, cache):
        cache.put_clean((1, 0), b"a" * 4096)
        assert cache.get((1, 0)) == b"a" * 4096
        assert cache.hits == 1

    def test_dirty_tracking(self, cache):
        cache.put_dirty((1, 0), b"d" * 4096)
        assert cache.dirty_blocks == 1
        cache.mark_clean((1, 0))
        assert cache.dirty_blocks == 0

    def test_clean_put_never_clobbers_dirty(self, cache):
        cache.put_dirty((1, 0), b"new" + bytes(4093))
        cache.put_clean((1, 0), b"old" + bytes(4093))
        assert cache.get((1, 0)).startswith(b"new")

    def test_dirty_put_overwrites(self, cache):
        cache.put_clean((1, 0), b"old" + bytes(4093))
        cache.put_dirty((1, 0), b"new" + bytes(4093))
        assert cache.get((1, 0)).startswith(b"new")

    def test_forget(self, cache):
        cache.put_dirty((1, 0), bytes(4096))
        cache.forget((1, 0))
        assert (1, 0) not in cache

    def test_forget_inode(self, cache):
        cache.put_dirty((1, 0), bytes(4096))
        cache.put_dirty((1, 5), bytes(4096))
        cache.put_dirty((2, 0), bytes(4096))
        cache.forget_inode(1)
        assert (1, 0) not in cache
        assert (2, 0) in cache

    def test_dirty_items_for(self, cache):
        cache.put_dirty((1, 0), bytes(4096))
        cache.put_dirty((2, 0), bytes(4096))
        items = cache.dirty_items_for(1)
        assert [key for key, _ in items] == [(1, 0)]


class TestCapacity:
    def test_clean_evicted_under_pressure(self, cache):
        for i in range(20):
            cache.put_clean((1, i), bytes(4096))
        assert len(list(cache)) <= cache.capacity_blocks

    def test_would_overflow_counts_dirty_only(self, cache):
        for i in range(10):
            cache.put_clean((1, i), bytes(4096))
        assert not cache.would_overflow(1)
        for i in range(16):
            cache.put_dirty((2, i), bytes(4096))
        assert cache.would_overflow(1)

    def test_dirty_never_evicted_by_clean_pressure(self, cache):
        cache.put_dirty((9, 9), b"keep" + bytes(4092))
        for i in range(40):
            cache.put_clean((1, i), bytes(4096))
        assert cache.get((9, 9)).startswith(b"keep")


class TestCrashSemantics:
    def test_dram_loses_everything(self):
        cache = FileCache(nvram=False)
        cache.put_dirty((1, 0), bytes(4096))
        cache.crash()
        assert list(cache) == []

    def test_nvram_survives(self):
        cache = FileCache(nvram=True)
        cache.put_dirty((1, 0), b"safe" + bytes(4092))
        cache.crash()
        assert cache.get((1, 0)).startswith(b"safe")

    def test_drop_clean_spares_dirty(self, cache):
        cache.put_clean((1, 0), bytes(4096))
        cache.put_dirty((1, 1), bytes(4096))
        cache.drop_clean()
        assert (1, 0) not in cache
        assert (1, 1) in cache

    def test_paper_capacity(self):
        cache = FileCache()  # defaults: 6.1 MB of 4 KB blocks
        assert cache.capacity_blocks == int(6.1 * 2**20) // 4096
