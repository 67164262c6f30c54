"""End-to-end UFS behaviour: namespace, data paths, sync semantics."""

import random

import pytest

from repro.fs.api import (
    DirectoryNotEmpty,
    FileExists,
    FileNotFound,
    IsADirectory,
    NotADirectory,
)
from repro.ufs.fsck import fsck


class TestNamespace:
    def test_create_and_stat(self, ufs):
        ufs.create("/hello")
        st = ufs.stat("/hello")
        assert st.size == 0
        assert not st.is_dir
        assert ufs.exists("/hello")

    def test_duplicate_create_rejected(self, ufs):
        ufs.create("/a")
        with pytest.raises(FileExists):
            ufs.create("/a")

    def test_nested_directories(self, ufs):
        ufs.mkdir("/d1")
        ufs.mkdir("/d1/d2")
        ufs.create("/d1/d2/f")
        assert ufs.exists("/d1/d2/f")
        assert ufs.listdir("/d1") == ["d2"]
        assert ufs.listdir("/d1/d2") == ["f"]

    def test_missing_parent(self, ufs):
        with pytest.raises(FileNotFound):
            ufs.create("/no/f")

    def test_file_as_directory_rejected(self, ufs):
        ufs.create("/f")
        with pytest.raises(NotADirectory):
            ufs.create("/f/child")

    def test_unlink(self, ufs):
        ufs.create("/gone")
        ufs.unlink("/gone")
        assert not ufs.exists("/gone")
        with pytest.raises(FileNotFound):
            ufs.unlink("/gone")

    def test_unlink_directory_rejected(self, ufs):
        ufs.mkdir("/d")
        with pytest.raises(IsADirectory):
            ufs.unlink("/d")

    def test_rmdir(self, ufs):
        ufs.mkdir("/d")
        ufs.rmdir("/d")
        assert not ufs.exists("/d")

    def test_rmdir_nonempty_rejected(self, ufs):
        ufs.mkdir("/d")
        ufs.create("/d/f")
        with pytest.raises(DirectoryNotEmpty):
            ufs.rmdir("/d")

    def test_many_files_in_one_directory(self, ufs):
        names = [f"/f{i:04d}" for i in range(600)]
        for name in names:
            ufs.create(name)
        assert ufs.listdir("/") == sorted(n[1:] for n in names)

    def test_inode_reuse_after_unlink(self, ufs):
        ufs.create("/a")
        inum = ufs.stat("/a").inum
        ufs.unlink("/a")
        ufs.create("/b")
        assert ufs.stat("/b").inum == inum


class TestDataPath:
    def test_write_read_roundtrip(self, ufs):
        ufs.create("/f")
        ufs.write("/f", 0, b"hello world")
        data, _ = ufs.read("/f", 0, 11)
        assert data == b"hello world"

    def test_read_past_eof_truncates(self, ufs):
        ufs.create("/f")
        ufs.write("/f", 0, b"abc")
        data, _ = ufs.read("/f", 1, 100)
        assert data == b"bc"

    def test_sparse_file_reads_zero(self, ufs):
        ufs.create("/f")
        ufs.write("/f", 100 * 4096, b"end")
        data, _ = ufs.read("/f", 50 * 4096, 10)
        assert data == bytes(10)
        assert ufs.stat("/f").size == 100 * 4096 + 3

    def test_overwrite_in_place(self, ufs):
        ufs.create("/f")
        ufs.write("/f", 0, b"A" * 8192)
        ufs.write("/f", 4096, b"B" * 4096)
        data, _ = ufs.read("/f", 0, 8192)
        assert data == b"A" * 4096 + b"B" * 4096

    def test_unaligned_overwrite(self, ufs):
        ufs.create("/f")
        ufs.write("/f", 0, b"A" * 10000)
        ufs.write("/f", 5000, b"B" * 100)
        data, _ = ufs.read("/f", 0, 10000)
        assert data[:5000] == b"A" * 5000
        assert data[5000:5100] == b"B" * 100
        assert data[5100:] == b"A" * 4900

    def test_large_file_with_indirect_blocks(self, ufs):
        blob = bytes(range(256)) * 16 * 300  # ~1.2 MB -> indirect blocks
        ufs.create("/big")
        ufs.write("/big", 0, blob)
        data, _ = ufs.read("/big", 0, len(blob))
        assert data == blob

    def test_survives_cache_drop(self, ufs):
        ufs.create("/f")
        ufs.write("/f", 0, b"persist me")
        ufs.sync()
        ufs.drop_caches()
        data, _ = ufs.read("/f", 0, 10)
        assert data == b"persist me"

    def test_write_to_directory_rejected(self, ufs):
        ufs.mkdir("/d")
        with pytest.raises(IsADirectory):
            ufs.write("/d", 0, b"x")

    def test_negative_offset_rejected(self, ufs):
        ufs.create("/f")
        with pytest.raises(ValueError):
            ufs.write("/f", -1, b"x")

    def test_random_interleaved_writes_match_model(self, ufs):
        """Fuzz reads/writes against an in-memory reference."""
        rng = random.Random(77)
        ufs.create("/fuzz")
        model = bytearray()
        for _ in range(60):
            offset = rng.randrange(0, 60000)
            payload = bytes([rng.randrange(256)]) * rng.randrange(1, 9000)
            ufs.write("/fuzz", offset, payload)
            if len(model) < offset:
                model.extend(bytes(offset - len(model)))
            if len(model) < offset + len(payload):
                model.extend(bytes(offset + len(payload) - len(model)))
            model[offset : offset + len(payload)] = payload
        data, _ = ufs.read("/fuzz", 0, len(model))
        assert data == bytes(model)


class TestFragments:
    def test_small_file_occupies_fragments(self, ufs):
        ufs.create("/small")
        ufs.write("/small", 0, b"z" * 1024)
        st = ufs.stat("/small")
        assert st.size == 1024
        # File should consume 1 KB of fragments, not a whole block.
        frag_addr, frag_count = (
            ufs._read_inode(st.inum, __import__("repro.sim.stats",
                fromlist=["Breakdown"]).Breakdown()).tail_frags()
        )
        assert frag_count == 1

    def test_growing_promotes_tail_to_block(self, ufs):
        ufs.create("/g")
        ufs.write("/g", 0, b"a" * 1024)
        ufs.write("/g", 1024, b"b" * 6000)
        data, _ = ufs.read("/g", 0, 7024)
        assert data == b"a" * 1024 + b"b" * 6000

    def test_growing_within_tail(self, ufs):
        ufs.create("/g")
        ufs.write("/g", 0, b"a" * 1000)
        ufs.write("/g", 1000, b"b" * 1000)
        data, _ = ufs.read("/g", 0, 2000)
        assert data == b"a" * 1000 + b"b" * 1000

    def test_fragments_free_on_unlink(self, ufs):
        ufs.create("/warm")  # allocates the root directory's data block
        frags_before = ufs.alloc.free_space()[0]
        ufs.create("/s")
        ufs.write("/s", 0, b"x" * 1024)
        ufs.unlink("/s")
        assert ufs.alloc.free_space()[0] == frags_before

    @pytest.mark.parametrize(
        "grown,shrunk", [(4096, 1), (8192, 5000)], ids=["4096-1", "8192-5000"]
    )
    def test_sparse_tail_shrink_gets_zeroed_fragments(self, ufs, grown, shrunk):
        # Regression: shrinking a file whose new tail block is a hole
        # demoted it to *no* fragments -- fsck "missing tail fragments",
        # and reads returned the bytes of fragment address 0.
        ufs.create("/a")
        ufs.truncate("/a", grown)
        ufs.truncate("/a", shrunk)
        ufs.sync()
        report = fsck(ufs)
        assert report.ok, report.errors
        tail = shrunk - shrunk % 4096
        data, _ = ufs.read("/a", tail, shrunk - tail)
        assert data == bytes(shrunk - tail)
        ufs.drop_caches()
        data, _ = ufs.read("/a", shrunk - 1, 1)
        assert data == b"\x00"


class TestSyncSemantics:
    def test_sync_write_touches_device(self, ufs):
        ufs.create("/f")
        breakdown = ufs.write("/f", 0, b"d" * 4096, sync=True)
        assert breakdown.locate + breakdown.transfer > 0

    def test_async_write_is_memory_speed(self, ufs):
        ufs.create("/f")
        ufs.write("/f", 0, b"warm" * 1024, sync=True)
        breakdown = ufs.write("/f", 0, b"d" * 4096, sync=False)
        assert breakdown.locate == 0.0

    def test_create_is_synchronous_metadata(self, ufs):
        """FFS semantics: create pays synchronous inode + directory
        writes -- the premise of the whole paper."""
        breakdown = ufs.create("/sync-create")
        assert breakdown.locate > 0
        assert ufs.device.disk.counters.writes >= 2

    def test_fsync_flushes_dirty_data(self, ufs):
        ufs.create("/f")
        ufs.write("/f", 0, b"q" * 4096, sync=False)
        writes_before = ufs.device.disk.counters.writes
        ufs.fsync("/f")
        assert ufs.device.disk.counters.writes > writes_before

    def test_sync_flushes_everything(self, ufs):
        ufs.create("/f")
        ufs.write("/f", 0, b"q" * 40960, sync=False)
        ufs.sync()
        assert ufs.cache.dirty_blocks == 0


class TestRemount:
    def test_remount_sees_files(self, ufs):
        ufs.create("/keep")
        ufs.write("/keep", 0, b"durable data")
        ufs.mkdir("/dir")
        ufs.create("/dir/nested")
        ufs.write("/dir/nested", 0, b"n" * 5000)
        ufs.sync()
        ufs.crash()
        ufs.recover()
        data, _ = ufs.read("/keep", 0, 12)
        assert data == b"durable data"
        data, _ = ufs.read("/dir/nested", 0, 5000)
        assert data == b"n" * 5000
        assert ufs.listdir("/") == ["dir", "keep"]

    def test_remount_preserves_free_space(self, ufs):
        ufs.create("/f")
        ufs.write("/f", 0, b"x" * 40960)
        ufs.sync()
        before = ufs.alloc.free_space()
        ufs.crash()
        ufs.recover()
        assert ufs.alloc.free_space() == before


class TestPrefetch:
    def test_sequential_reads_trigger_prefetch(self, ufs):
        blob = bytes(range(256)) * 16 * 64  # 64 blocks
        ufs.create("/seq")
        ufs.write("/seq", 0, blob)
        ufs.sync()
        ufs.drop_caches()
        for i in range(8):
            ufs.read("/seq", i * 4096, 4096)
        reads_after_8 = ufs.device.disk.counters.reads
        for i in range(8, 32):
            ufs.read("/seq", i * 4096, 4096)
        # Prefetch clusters mean far fewer than 24 extra disk commands.
        assert ufs.device.disk.counters.reads - reads_after_8 < 16

    def test_random_reads_do_not_prefetch_wildly(self, ufs):
        blob = bytes(4096) * 64
        ufs.create("/rand")
        ufs.write("/rand", 0, blob)
        ufs.sync()
        ufs.drop_caches()
        rng = random.Random(1)
        sectors_before = ufs.device.disk.counters.sectors_read
        for _ in range(10):
            ufs.read("/rand", rng.randrange(64) * 4096, 4096)
        # At most ~1 block per read plus metadata.
        assert ufs.device.disk.counters.sectors_read - sectors_before < 10 * 8 * 3


class TestOnVld:
    def test_full_workout_on_virtual_log_disk(self, ufs_vld):
        ufs_vld.mkdir("/d")
        for i in range(50):
            ufs_vld.create(f"/d/f{i}")
            ufs_vld.write(f"/d/f{i}", 0, bytes([i]) * 3000, sync=True)
        for i in range(50):
            data, _ = ufs_vld.read(f"/d/f{i}", 0, 3000)
            assert data == bytes([i]) * 3000
        for i in range(0, 50, 2):
            ufs_vld.unlink(f"/d/f{i}")
        assert len(ufs_vld.listdir("/d")) == 25
        ufs_vld.device.vlog.check_invariants()

    def test_sync_updates_faster_on_vld(self, ufs, ufs_vld):
        """Figure 8's core comparison at file system level."""
        rng = random.Random(4)
        results = {}
        for name, fs in (("regular", ufs), ("vld", ufs_vld)):
            fs.create("/t")
            fs.write("/t", 0, bytes(4096) * 512)  # 2 MB
            fs.sync()
            total = 0.0
            for _ in range(60):
                offset = rng.randrange(512) * 4096
                total += fs.write("/t", offset, b"u" * 4096, sync=True).total
            results[name] = total / 60
        assert results["vld"] < results["regular"] / 2
