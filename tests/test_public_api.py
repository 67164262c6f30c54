"""The README's front-door code paths, kept honest."""

import importlib
import inspect

import repro

#: The configuration surface: every parameter of the stack's
#: constructors and workload drivers, in order.  A value that no caller
#: sets to anything but its default is a constant at the place that uses
#: it, not a parameter (DESIGN.md section 7), so adding an option here
#: is a reviewed edit of this table.
CONFIGURATION_SURFACE = {
    "repro.ufs.ufs:UFS": ("device", "host"),
    "repro.lfs.lfs:LFS": ("device", "host", "nvram", "cleaner_policy"),
    "repro.vlfs.vlfs:VLFS": ("disk", "host", "nvram"),
    "repro.nvm.wal:NVWal": ("inner", "spec", "clock"),
    "repro.volume.health:ShardHealthMonitor": (
        "window", "baseline_samples", "min_samples",
    ),
    "repro.vlog.vld:VirtualLogDisk": (
        "disk", "map_record_bytes", "policy",
        "fill_threshold", "queue_depth", "sched",
    ),
    "repro.vlog.resilience:ResilienceController": ("vld",),
    "repro.vlog.compactor:FreeSpaceCompactor": ("vld",),
    "repro.vlog.reorganizer:ReadReorganizer": ("vld",),
    "repro.blockdev.interpose:build_device_stack": (
        "disk", "device_type", "trace", "metrics", "faults", "nvm",
        "device_kwargs",
    ),
    "repro.harness.configs:build_sharded_volume": (
        "shards", "stripe_blocks", "num_cylinders", "queue_depth", "sched",
        "fault_plans",
    ),
    "repro.workloads.random_update:prepare_file": ("fs", "path", "file_bytes"),
    "repro.workloads.random_update:run_random_updates": (
        "fs", "path", "file_bytes", "updates", "warmup", "seed",
    ),
    "repro.workloads.bursts:run_bursts": (
        "fs", "path", "file_bytes", "burst_bytes", "idle_seconds", "bursts",
        "seed",
    ),
    "repro.workloads.largefile:run_large_file": (
        "fs", "file_bytes", "include_sync_phase", "seed", "verify",
    ),
    "repro.workloads.smallfile:run_small_file": ("fs", "num_files", "verify"),
    "repro.harness.runner:simulate_locate_free": (
        "spec", "free_fraction", "trials", "seed",
    ),
    "repro.harness.runner:simulate_queued_workload": (
        "spec", "queue_depth", "policy", "workload", "requests",
        "think_seconds", "seed",
    ),
    "repro.hosts.multihost:run_multihost": (
        "spec", "hosts", "disks", "requests_per_host", "request_sectors",
        "think_seconds", "workload", "policy", "seed", "trace", "shards",
        "shard_slow",
    ),
}


def _signature(path):
    module, name = path.split(":")
    return inspect.signature(getattr(importlib.import_module(module), name))


class TestConfigurationSurface:
    def test_parameter_names_are_pinned(self):
        for path, names in CONFIGURATION_SURFACE.items():
            assert tuple(_signature(path).parameters) == names, path

    def test_optional_parameter_count_is_pinned(self):
        optional = sum(
            parameter.default is not inspect.Parameter.empty
            for path in CONFIGURATION_SURFACE
            for parameter in _signature(path).parameters.values()
        )
        assert optional == 52


class TestReadmeSnippets:
    def test_quickstart_block_device(self):
        vld = repro.VirtualLogDisk(repro.Disk(repro.ST19101))
        breakdown = vld.write_block(1234, b"payload" + bytes(4089))
        assert breakdown.total > 0
        vld.power_down()
        vld.crash()
        outcome = vld.recover()
        assert outcome.used_power_down_record
        data, _ = vld.read_block(1234)
        assert data.startswith(b"payload")

    def test_quickstart_file_system(self):
        fs = repro.UFS(
            repro.VirtualLogDisk(repro.Disk(repro.ST19101)),
            repro.SPARCSTATION_10,
        )
        fs.mkdir("/mail")
        fs.create("/mail/inbox")
        fs.write("/mail/inbox", 0, b"hello", sync=True)
        data, latency = fs.read("/mail/inbox", 0, 5)
        assert data == b"hello"
        assert latency.total > 0
        fs.crash()
        outcome = fs.recover()
        assert outcome.inner.scanned  # no power-down record: a scan
        data, _ = fs.read("/mail/inbox", 0, 5)
        assert data == b"hello"

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_every_public_module_has_docstring(self):
        import importlib
        import pkgutil

        for module_info in pkgutil.walk_packages(
            repro.__path__, prefix="repro."
        ):
            module = importlib.import_module(module_info.name)
            assert module.__doc__, f"{module_info.name} lacks a docstring"


class TestCrossLayerSmoke:
    def test_all_three_filesystems_share_the_api(self):
        from repro.blockdev import RegularDisk

        stacks = [
            repro.UFS(
                RegularDisk(repro.Disk(repro.ST19101)),
                repro.SPARCSTATION_10,
            ),
            repro.LFS(
                RegularDisk(repro.Disk(repro.ST19101)),
                repro.SPARCSTATION_10,
            ),
            repro.VLFS(repro.Disk(repro.ST19101), repro.SPARCSTATION_10),
        ]
        for fs in stacks:
            fs.mkdir("/d")
            fs.create("/d/f")
            fs.write("/d/f", 0, b"shared api", sync=True)
            fs.rename("/d/f", "/d/g")
            fs.truncate("/d/g", 6)
            fs.sync()
            fs.drop_caches()
            data, _ = fs.read("/d/g", 0, 10)
            assert data == b"shared"
            fs.unlink("/d/g")
            fs.rmdir("/d")
            assert fs.listdir("/") == []

    def test_vld_read_blocks_with_holes(self):
        vld = repro.VirtualLogDisk(repro.Disk(repro.ST19101))
        vld.write_block(10, b"\x01" * 4096)
        vld.write_block(12, b"\x03" * 4096)
        data, _ = vld.read_blocks(9, 5)  # hole, mapped, hole, mapped, hole
        assert data[0:4096] == bytes(4096)
        assert data[4096:8192] == b"\x01" * 4096
        assert data[8192:12288] == bytes(4096)
        assert data[12288:16384] == b"\x03" * 4096
        assert data[16384:] == bytes(4096)

    def test_disk_transfer_across_cylinder_boundary(self):
        disk = repro.Disk(repro.ST19101)
        per_cyl = disk.geometry.sectors_per_cylinder
        start = per_cyl - 16  # last 16 sectors of cylinder 0
        payload = bytes(range(256)) * (32 * 512 // 256)
        disk.write(start, 32, payload)
        data, _ = disk.read(start, 32)
        assert data == payload
        assert disk.head_cylinder == 1
