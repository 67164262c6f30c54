"""build_stack's interposer threading: config fields are the only
route, a config survives the trip through sweep-point parameters, the
metrics registry, and metrics-vs-recorder agreement on the Figure 9
breakdown."""

import json

import pytest

from repro.blockdev.interpose import (
    FaultDevice,
    FaultPlan,
    MetricsDevice,
    TracingDevice,
    core_device,
    find_layer,
)
from repro.blockdev.nvm import NVM_SPECS
from repro.blockdev.regular import RegularDisk
from repro.harness.configs import (
    StackConfig,
    build_stack,
    drain_metrics_stacks,
)
from repro.nvm import NVWal
from repro.sim.stats import COMPONENTS
from repro.vlog.vld import VirtualLogDisk
from repro.workloads.random_update import prepare_file, run_random_updates


@pytest.fixture(autouse=True)
def _clean_metrics_registry():
    drain_metrics_stacks()
    yield
    drain_metrics_stacks()


def _config(**kwargs):
    return StackConfig(
        "ufs-regular", "ufs", "regular", num_cylinders=2, **kwargs
    )


class TestConfigFlags:
    def test_no_flags_builds_bare_device(self):
        _fs, _disk, device = build_stack(_config())
        assert isinstance(device, RegularDisk)

    def test_metrics_flag_wraps_and_registers(self):
        _fs, _disk, device = build_stack(_config(metrics=True))
        assert isinstance(device, MetricsDevice)
        registry = drain_metrics_stacks()
        assert [name for name, _ in registry] == ["ufs-regular"]
        assert registry[0][1] is device

    def test_trace_and_fault_flags(self):
        config = _config(trace=True, faults=FaultPlan(seed=1))
        _fs, _disk, device = build_stack(config)
        assert isinstance(device, TracingDevice)
        assert find_layer(device, FaultDevice) is not None
        assert drain_metrics_stacks() == []

    def test_vld_config_keeps_vld_core(self):
        config = StackConfig(
            "ufs-vld", "ufs", "vld", num_cylinders=2, metrics=True
        )
        _fs, _disk, device = build_stack(config)
        assert isinstance(core_device(device), VirtualLogDisk)

    def test_trace_path_is_the_sink(self, tmp_path):
        sink = tmp_path / "ops.jsonl"
        fs, _disk, device = build_stack(_config(trace=str(sink)))
        assert isinstance(device, TracingDevice)
        fs.create("/f")
        fs.write("/f", 0, b"payload", sync=True)
        device.close()
        records = [json.loads(line) for line in sink.read_text().splitlines()]
        assert len(records) == len(device.events) > 0

    def test_queue_and_nvm_fields_reach_the_core(self):
        config = StackConfig(
            "ufs-vld", "ufs", "vld", num_cylinders=2,
            queue_depth=4, sched="satf", nvm="slow-pcm",
        )
        _fs, _disk, device = build_stack(config)
        wal = find_layer(device, NVWal)
        assert wal.nvm.spec is NVM_SPECS["slow-pcm"]
        core = wal.inner
        assert isinstance(core, VirtualLogDisk)
        assert (core.scheduler.queue_depth, core.scheduler.policy.name) == (
            4, "satf"
        )

    def test_config_survives_point_params(self):
        """What a sweep point ships is JSON, and rebuilds the same config
        (nested specs included) on the other side."""
        config = _config(
            queue_depth=4, sched="satf", metrics=True, trace="/tmp/t.jsonl",
            nvm=NVM_SPECS["nvdimm"].with_overrides(store_latency=3e-6),
            faults=FaultPlan(seed=7, slow_factor=4.0, slow_after_ops=10),
        )
        shipped = json.loads(json.dumps(config.to_params()))
        assert StackConfig.from_params(shipped) == config
        plain = _config()
        assert StackConfig.from_params(plain.to_params()) == plain

    def test_fs_still_works_through_the_stack(self):
        fs, _disk, device = build_stack(_config(metrics=True, trace=True))
        fs.create("/f")
        fs.write("/f", 0, b"payload", sync=True)
        data, _ = fs.read("/f", 0, 7)
        assert data == b"payload"
        assert sum(find_layer(device, MetricsDevice).ops.values()) > 0


class TestFigure9FromHistograms:
    def test_metrics_fractions_match_recorder_fractions(self):
        """At depth 1 the ``--metrics`` summary's inference -- host time
        from the clock gaps between device operations -- agrees with the
        writes' own breakdowns, which Figure 9 reads."""
        config = StackConfig(
            "ufs-vld", "ufs", "vld", num_cylinders=2, metrics=True
        )
        fs, _disk, device = build_stack(config)
        metrics = find_layer(device, MetricsDevice)
        file_bytes = 64 * 4096
        prepare_file(fs, "/target", file_bytes)
        run_random_updates(fs, "/target", file_bytes, updates=10)
        metrics.reset()
        recorder = run_random_updates(
            fs, "/target", file_bytes, updates=40, seed=7
        )
        from_metrics = metrics.component_fractions()
        from_recorder = recorder.component_fractions()
        for name in COMPONENTS:
            assert from_metrics[name] == pytest.approx(
                from_recorder[name], abs=1e-6
            )
        # And the absolute time agrees, not just the shape.
        assert sum(metrics.component_totals().values()) == pytest.approx(
            recorder.total_time
        )
