"""Workload generators: content integrity plus paper-shaped behaviour."""

import pytest

from repro.workloads.bursts import run_bursts
from repro.workloads.largefile import run_large_file
from repro.workloads.random_update import prepare_file, run_random_updates
from repro.workloads.smallfile import run_small_file

_MB = 1 << 20


class TestSmallFile:
    def test_phases_reported_and_verified(self, ufs):
        result = run_small_file(ufs, num_files=40, verify=True)
        assert result.num_files == 40
        assert result.create_seconds > 0
        assert result.read_seconds > 0
        assert result.delete_seconds > 0
        assert result.phase("create") == result.create_seconds

    def test_files_are_gone_after_delete(self, ufs):
        run_small_file(ufs, num_files=10)
        assert ufs.listdir("/") == []

    def test_lfs_create_much_faster_than_ufs(self, ufs, lfs):
        """Figure 6's left bars: LFS buffers, UFS writes synchronously."""
        ufs_result = run_small_file(ufs, num_files=40)
        lfs_result = run_small_file(lfs, num_files=40)
        assert lfs_result.create_seconds < ufs_result.create_seconds


class TestLargeFile:
    def test_all_phases_present(self, ufs):
        result = run_large_file(ufs, file_bytes=2 * _MB, verify=True)
        for phase in (
            "seq_write",
            "seq_read",
            "rand_write_async",
            "rand_write_sync",
            "seq_read_again",
            "rand_read",
        ):
            assert result.bandwidths[phase] > 0

    def test_sync_phase_optional(self, lfs):
        result = run_large_file(
            lfs, file_bytes=2 * _MB, include_sync_phase=False
        )
        assert "rand_write_sync" not in result.bandwidths

    def test_sync_random_write_slowest_on_ufs_regular(self, ufs):
        result = run_large_file(ufs, file_bytes=2 * _MB)
        bandwidths = result.bandwidths
        assert bandwidths["rand_write_sync"] < bandwidths["seq_write"]
        assert bandwidths["rand_write_sync"] < bandwidths["rand_write_async"]

    def test_random_writes_destroy_vld_read_locality(self, ufs_vld):
        """Figure 7: sequential read *after* random writes collapses on
        eager-writing layouts."""
        result = run_large_file(ufs_vld, file_bytes=2 * _MB)
        assert (
            result.bandwidths["seq_read_again"]
            < result.bandwidths["seq_read"]
        )


class TestRandomUpdates:
    def test_prepare_then_update(self, ufs):
        prepare_file(ufs, "/t", 2 * _MB)
        assert ufs.stat("/t").size == 2 * _MB
        recorder = run_random_updates(ufs, "/t", 2 * _MB, updates=30)
        assert recorder.count == 30
        assert recorder.mean() > 0

    def test_warmup_excluded_from_stats(self, ufs):
        prepare_file(ufs, "/t", _MB)
        recorder = run_random_updates(
            ufs, "/t", _MB, updates=10, warmup=5
        )
        assert recorder.count == 10

    def test_deterministic_given_seed(self, ufs, host):
        from repro.blockdev.regular import RegularDisk
        from repro.disk.disk import Disk
        from repro.disk.specs import ST19101
        from repro.ufs.ufs import UFS

        means = []
        for _ in range(2):
            fs = UFS(RegularDisk(Disk(ST19101)), host)
            prepare_file(fs, "/t", _MB)
            recorder = run_random_updates(fs, "/t", _MB, updates=25, seed=7)
            means.append(recorder.mean())
        assert means[0] == pytest.approx(means[1])


class TestBursts:
    def test_idle_time_passes_between_bursts(self, ufs_vld):
        prepare_file(ufs_vld, "/t", 2 * _MB)
        clock = ufs_vld.clock
        start = clock.now
        run_bursts(
            ufs_vld,
            "/t",
            2 * _MB,
            burst_bytes=64 << 10,
            idle_seconds=0.2,
            bursts=3,
        )
        assert clock.now - start >= 3 * 0.2

    def test_recorder_counts_only_measured_bursts(self, ufs):
        prepare_file(ufs, "/t", _MB)
        recorder = run_bursts(
            ufs,
            "/t",
            _MB,
            burst_bytes=32 << 10,
            idle_seconds=0.0,
            bursts=2,
        )
        assert recorder.count == 2 * (32 << 10) // 4096
