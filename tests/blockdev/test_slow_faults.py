"""The fail-slow fault family: seeded latency-multiplier windows in
FaultDevice, their metrics/trace visibility, and the hedge cap."""

import io
import json

import pytest

from repro.blockdev.interpose import (
    FaultDevice,
    FaultPlan,
    MetricsDevice,
    TracingDevice,
)
from repro.blockdev.regular import RegularDisk
from repro.disk.disk import Disk
from repro.disk.specs import ST19101
from repro.sim.clock import SimClock

PAYLOAD = b"\x5C" * 4096


def slow_stack(plan, clock=None):
    disk = Disk(ST19101, clock=clock or SimClock(), num_cylinders=2)
    return disk, FaultDevice(RegularDisk(disk), plan)


class TestPlanValidation:
    def test_slow_factor_below_one_rejected(self):
        for factor in (0.5, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="slow_factor"):
                FaultPlan(slow_factor=factor)

    def test_nonpositive_bounds_rejected(self):
        with pytest.raises(ValueError, match="slow_after_ops"):
            FaultPlan(slow_factor=2.0, slow_after_ops=0)
        with pytest.raises(ValueError, match="slow_duration_ops"):
            FaultPlan(slow_factor=2.0, slow_duration_ops=-3)

    def test_parse_slow_keys(self):
        plan = FaultPlan.parse("slow_factor=8,slow_after=20,slow_ops=60")
        assert plan.slow_factor == 8.0
        assert plan.slow_after_ops == 20
        assert plan.slow_duration_ops == 60
        assert plan.slow_window() == (20, 80)

    def test_parse_rejects_unknown_key(self):
        with pytest.raises(ValueError, match="slow_factor"):
            FaultPlan.parse("slowfactor=8")


class TestSlowWindow:
    def test_no_slowdown_means_no_window(self):
        assert FaultPlan().slow_window() is None
        assert FaultPlan(slow_after_ops=5).slow_window() is None

    def test_explicit_onset_open_ended(self):
        plan = FaultPlan(slow_factor=4.0, slow_after_ops=10)
        assert plan.slow_window() == (10, None)

    def test_seeded_window_is_deterministic(self):
        a = FaultPlan(seed=42, slow_factor=4.0).slow_window()
        b = FaultPlan(seed=42, slow_factor=4.0).slow_window()
        assert a == b
        first, end = a
        assert 1 <= first < 33
        assert 16 <= end - first < 129

    def test_different_seeds_draw_different_windows(self):
        windows = {
            FaultPlan(seed=s, slow_factor=4.0).slow_window()
            for s in range(12)
        }
        assert len(windows) > 1


class TestFaultDeviceSlowing:
    def test_only_window_ops_are_slowed(self):
        plan = FaultPlan(
            slow_factor=3.0, slow_after_ops=3, slow_duration_ops=2
        )
        _, device = slow_stack(plan)
        costs = []
        for i in range(6):
            device.write_block(i, PAYLOAD)
            data, cost = device.read_block(i)
            assert data == PAYLOAD
            costs.append(cost)
        # Ops are counted host-visibly: write1 read2 write3 read4 ...;
        # the window covers ordinals 3 and 4 -> one slowed read (op 4).
        assert device.ops_slowed == 2
        assert device.slow_extra_seconds > 0.0

    def test_clock_advances_by_the_surplus(self):
        plan = FaultPlan(slow_factor=5.0, slow_after_ops=1)
        disk, device = slow_stack(plan)
        device.write_block(0, PAYLOAD)
        before = disk.clock.now
        _, cost = device.read_block(0)
        elapsed = disk.clock.now - before
        # The caller's elapsed time and the breakdown agree: an honest,
        # if slow, operation.
        assert elapsed == pytest.approx(cost.total)
        assert device.ops_slowed >= 1

    def test_surplus_is_charged_to_locate(self):
        # Window opens at op 2: the write is normal on both devices, so
        # their disk states (and the read's base cost) stay identical.
        slow_plan = FaultPlan(slow_factor=4.0, slow_after_ops=2)
        _, slow_dev = slow_stack(slow_plan)
        _, fast_dev = slow_stack(FaultPlan())
        slow_dev.write_block(0, PAYLOAD)
        fast_dev.write_block(0, PAYLOAD)
        _, slow_cost = slow_dev.read_block(0)
        _, fast_cost = fast_dev.read_block(0)
        assert slow_cost.total == pytest.approx(fast_cost.total * 4.0)
        assert slow_cost.transfer == pytest.approx(fast_cost.transfer)
        assert slow_cost.locate > fast_cost.locate

    def test_hedge_cap_bounds_the_surplus(self):
        plan = FaultPlan(slow_factor=100.0, slow_after_ops=2)
        _, capped = slow_stack(plan)
        _, uncapped = slow_stack(plan)
        capped.write_block(0, PAYLOAD)
        uncapped.write_block(0, PAYLOAD)
        capped.hedge_cap = 0.001
        _, capped_cost = capped.read_block(0)
        _, uncapped_cost = uncapped.read_block(0)
        assert capped_cost.total < uncapped_cost.total
        assert capped.slow_extra_seconds == pytest.approx(0.001)


class TestObservability:
    def build(self, plan):
        disk = Disk(ST19101, clock=SimClock(), num_cylinders=2)
        sink = io.StringIO()
        metrics = MetricsDevice(FaultDevice(RegularDisk(disk), plan))
        traced = TracingDevice(metrics, sink=sink)
        return traced, metrics, sink

    def test_metrics_report_counts_slowed_ops(self):
        plan = FaultPlan(slow_factor=6.0, slow_after_ops=2)
        device, metrics, _ = self.build(plan)
        device.write_block(0, PAYLOAD)
        device.read_block(0)
        device.read_block(0)
        assert metrics.slowed == {"read": 2}
        assert metrics.slow_seconds > 0.0
        assert "slowed[read=2]" in metrics.summary()

    def test_trace_events_carry_slow_extra(self):
        plan = FaultPlan(slow_factor=6.0, slow_after_ops=2)
        device, _, sink = self.build(plan)
        device.write_block(0, PAYLOAD)
        device.read_block(0)
        records = [
            json.loads(line) for line in sink.getvalue().splitlines()
        ]
        assert "slow_extra" not in records[0]  # write, before the window
        assert records[1]["op"] == "read"
        assert records[1]["slow_extra"] > 0.0
