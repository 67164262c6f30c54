"""Degraded-mode operation: bounded unavailability, no hangs, and
hedged reads against a fail-slow shard."""

import pytest

from repro.blockdev.interpose import FaultPlan
from repro.harness.configs import build_sharded_volume
from repro.vlog.resilience import RetryPolicy
from repro.volume import ShardUnavailable


def payload(lba, size):
    return bytes([lba % 251]) * size


def fill(volume, n=24):
    for lba in range(n):
        volume.write_block(lba, payload(lba, volume.block_size))


class TestBoundedUnavailability:
    def test_down_shard_requests_fail_within_the_retry_budget(self):
        policy = RetryPolicy(
            max_attempts=3, initial_backoff=0.002, backoff_factor=2.0
        )
        volume, _, disks = build_sharded_volume(shards=3, num_cylinders=2)
        volume.retry_policy = policy
        fill(volume)
        volume.crash_shard(1)
        budget = policy.backoff(1) + policy.backoff(2)
        clock = disks[0].clock
        victim = next(
            lba for lba in range(24) if volume.shard_of(lba)[0] == 1
        )
        before = clock.now
        with pytest.raises(ShardUnavailable):
            volume.read_block(victim)
        # The request paid exactly the bounded budget -- deterministic
        # simulated time, not a hang, not a free instant failure.
        assert clock.now - before == pytest.approx(budget)
        assert volume.backoff_seconds[1] == pytest.approx(budget)
        assert volume.unavailable_errors[1] == 1

    def test_down_shard_is_never_called(self):
        volume, _, _ = build_sharded_volume(shards=3, num_cylinders=2)
        fill(volume)
        volume.crash_shard(0)
        calls_before = volume.shard_calls[0]
        victim = next(
            lba for lba in range(24) if volume.shard_of(lba)[0] == 0
        )
        for _ in range(3):
            with pytest.raises(ShardUnavailable):
                volume.write_block(victim, payload(9, volume.block_size))
        assert volume.shard_calls[0] == calls_before
        assert volume.unavailable_errors[0] == 3

    def test_healthy_io_flows_while_one_shard_is_down(self):
        volume, _, _ = build_sharded_volume(shards=3, num_cylinders=2)
        fill(volume)
        volume.crash_shard(2)
        size = volume.block_size
        healthy = [
            lba for lba in range(24) if volume.shard_of(lba)[0] != 2
        ]
        for lba in healthy:
            volume.write_block(lba, payload(lba + 100, size))
        for lba in healthy:
            data, _ = volume.read_block(lba)
            assert data == payload(lba + 100, size)

    def test_unavailable_carries_shard_and_cause(self):
        volume, _, _ = build_sharded_volume(shards=3, num_cylinders=2)
        fill(volume)
        volume.crash_shard(1)
        victim = next(
            lba for lba in range(24) if volume.shard_of(lba)[0] == 1
        )
        with pytest.raises(ShardUnavailable) as err:
            volume.read_block(victim)
        assert err.value.shard == 1
        assert "backoff" in str(err.value)


class TestHedgedReads:
    def hedging_volume(self, factor=16.0):
        # The slow onset sits past the monitor's 32-sample baseline so
        # "normal" is learned from genuinely normal operations.
        plan = FaultPlan(
            seed=5, slow_factor=factor, slow_after_ops=64,
            slow_duration_ops=4000,
        )
        return build_sharded_volume(
            shards=3, num_cylinders=2, fault_plans={1: plan}
        )

    def read_until_tripped(self, volume, rounds=60):
        limping = [
            lba for lba in range(24) if volume.shard_of(lba)[0] == 1
        ]
        for _ in range(rounds):
            for lba in limping:
                volume.read_block(lba)
            if volume.monitors[1].tripped:
                return True
        return volume.monitors[1].tripped

    def test_monitor_trips_and_reads_get_hedged(self):
        volume, _, _ = self.hedging_volume()
        fill(volume)
        assert self.read_until_tripped(volume)
        before = volume.hedged_reads[1]
        limping = [
            lba for lba in range(24) if volume.shard_of(lba)[0] == 1
        ]
        for lba in limping:
            volume.read_block(lba)
        assert volume.hedged_reads[1] > before

    def test_hedged_read_is_cheaper_than_unhedged(self):
        # 64x surplus dwarfs the monitor's hedge delay, so the cap binds.
        hedged_vol, _, _ = self.hedging_volume(factor=64.0)
        fill(hedged_vol)
        assert self.read_until_tripped(hedged_vol)
        lba = next(
            l for l in range(24) if hedged_vol.shard_of(l)[0] == 1
        )
        _, hedged_cost = hedged_vol.read_block(lba)

        plain_vol, _, _ = build_sharded_volume(
            shards=3, num_cylinders=2,
            fault_plans={1: FaultPlan(
                seed=5, slow_factor=64.0, slow_after_ops=64,
                slow_duration_ops=4000,
            )},
        )
        plain_vol.hedge_reads = False
        fill(plain_vol)
        self.read_until_tripped(plain_vol)  # same op sequence, no trip use
        _, raw_cost = plain_vol.read_block(lba)
        # The hedge caps the fail-slow surplus at the monitor's delay;
        # the unhedged read pays the full 16x factor.
        assert hedged_cost.total < raw_cost.total

    def test_hedge_cap_is_restored_after_the_read(self):
        volume, devices, _ = self.hedging_volume()
        fill(volume)
        assert self.read_until_tripped(volume)
        layer = volume._fault_layers[1]
        lba = next(
            l for l in range(24) if volume.shard_of(l)[0] == 1
        )
        volume.read_block(lba)
        assert layer.hedge_cap is None

    def test_recovered_shard_relearns_its_baseline(self):
        volume, _, _ = self.hedging_volume()
        fill(volume)
        assert self.read_until_tripped(volume)
        volume.recover_shard(1)
        monitor = volume.monitors[1]
        assert not monitor.tripped
        assert monitor.baseline_p99 is None
        assert monitor.samples == 0


class TestBaselineCalibration:
    """A shard slow from op 0 froze an inflated baseline: slow looked
    normal, so the local 4x comparison could never fire.  Calibration
    against the sibling medians must still trip it."""

    def slow_from_birth_volume(self, factor=16.0):
        # slow_after_ops=1: degraded from (effectively) the first op,
        # so the whole 32-sample baseline pool is slow samples.
        plan = FaultPlan(
            seed=5, slow_factor=factor, slow_after_ops=1,
            slow_duration_ops=100000,
        )
        return build_sharded_volume(
            shards=3, num_cylinders=2, fault_plans={1: plan}
        )

    def drive(self, volume, rounds=40):
        for _ in range(rounds):
            for lba in range(24):
                try:
                    volume.read_block(lba)
                except ShardUnavailable:
                    pass

    def test_slow_from_op_zero_still_trips(self):
        volume, _, _ = self.slow_from_birth_volume()
        fill(volume)
        self.drive(volume)
        monitor = volume.monitors[1]
        # Every sample the monitor ever saw was degraded; without
        # cross-shard calibration its baseline is ~16x the siblings' and
        # the trip can never fire locally.
        assert monitor.baseline_p99 is not None
        assert monitor.tripped
        # The adopted baseline is the siblings' normal, so the hedge
        # delay is sized to healthy latencies, not the inflated ones.
        healthy = volume.monitors[0].baseline_p99
        assert monitor.baseline_p99 == pytest.approx(healthy, rel=2.0)

    def test_slow_from_birth_draws_hedged_reads(self):
        volume, _, _ = self.slow_from_birth_volume(factor=64.0)
        fill(volume)
        self.drive(volume)
        limping = [
            lba for lba in range(24) if volume.shard_of(lba)[0] == 1
        ]
        before = volume.hedged_reads[1]
        for lba in limping:
            volume.read_block(lba)
        assert volume.hedged_reads[1] > before

    def test_healthy_volume_never_miscalibrates(self):
        volume, _, _ = build_sharded_volume(shards=3, num_cylinders=2)
        fill(volume)
        self.drive(volume, rounds=10)
        for monitor in volume.monitors:
            assert monitor.baseline_p99 is not None
            assert monitor.calibrated
            assert not monitor.tripped
        assert sum(m.trips for m in volume.monitors) == 0

    def test_late_onset_family_is_untouched_by_calibration(self):
        # The existing fail-slow story: baseline learned while healthy,
        # onset later.  Calibration must not replace that sane baseline.
        plan = FaultPlan(
            seed=5, slow_factor=16.0, slow_after_ops=64,
            slow_duration_ops=4000,
        )
        volume, _, _ = build_sharded_volume(
            shards=3, num_cylinders=2, fault_plans={1: plan}
        )
        fill(volume)
        baseline_before = None
        for _ in range(60):
            for lba in range(24):
                volume.read_block(lba)
            monitor = volume.monitors[1]
            if monitor.calibrated and baseline_before is None:
                baseline_before = monitor.baseline_p99
        assert volume.monitors[1].tripped  # the normal trip path fired
        assert volume.monitors[1].baseline_p99 == baseline_before
