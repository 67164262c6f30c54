"""The sharded volume: striping layout, scatter/gather, fault
containment, and the volume-level fsck."""

import pytest

from repro.blockdev.interpose import FaultPlane
from repro.harness.configs import build_sharded_volume
from repro.vlog.recovery import RecoveryOutcome
from repro.vlog.resilience import MediaError
from repro.volume import ShardUnavailable, ShardedVolume, volume_fsck


def small_volume(shards=3, stripe_blocks=4, **kwargs):
    return build_sharded_volume(
        shards=shards, stripe_blocks=stripe_blocks, num_cylinders=2,
        **kwargs,
    )


def payload(lba, size):
    return bytes([lba % 251]) * size


class TestLayout:
    def test_round_robin_bijection(self):
        volume, _, _ = small_volume()
        seen = set()
        for lba in range(volume.num_blocks):
            shard, s_lba = volume.shard_of(lba)
            assert 0 <= shard < volume.num_shards
            assert 0 <= s_lba < volume.shard_capacity
            assert volume.volume_lba(shard, s_lba) == lba
            seen.add((shard, s_lba))
        assert len(seen) == volume.num_blocks  # injective

    def test_stripes_rotate_across_shards(self):
        volume, _, _ = small_volume(shards=3, stripe_blocks=4)
        # Stripe t lands whole on shard t % 3.
        for stripe in range(6):
            shards = {
                volume.shard_of(stripe * 4 + w)[0] for w in range(4)
            }
            assert shards == {stripe % 3}

    def test_capacity_is_whole_stripes_times_shards(self):
        volume, devices, _ = small_volume()
        per_shard = min(d.num_blocks for d in devices)
        rows = per_shard // volume.stripe_blocks
        assert volume.num_blocks == rows * volume.stripe_blocks * 3
        assert volume.shard_capacity == rows * volume.stripe_blocks

    def test_plan_splits_into_contiguous_shard_runs(self):
        volume, _, _ = small_volume(shards=3, stripe_blocks=4)
        # A range spanning three stripes touches all three shards, one
        # contiguous run each.
        plan = volume._plan(2, 10)  # blocks 2..11: stripes 0, 1, 2
        assert [entry[0] for entry in plan] == [0, 1, 2]
        covered = []
        for _shard, _start, count, positions in plan:
            assert len(positions) == count
            covered.extend(positions)
        assert sorted(covered) == list(range(10))

    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="at least one shard"):
            ShardedVolume([])
        volume, devices, _ = small_volume()
        with pytest.raises(ValueError, match="stripe width"):
            ShardedVolume(devices, stripe_blocks=0)


class TestScatterGather:
    def test_multi_stripe_write_reads_back_everywhere(self):
        volume, _, _ = small_volume(shards=3, stripe_blocks=4)
        size = volume.block_size
        data = b"".join(payload(lba, size) for lba in range(2, 12))
        volume.write_blocks(2, 10, data)
        # Bulk read...
        got, _ = volume.read_blocks(2, 10)
        assert got == data
        # ...and per-block reads agree (the scatter matches the gather).
        for lba in range(2, 12):
            one, _ = volume.read_block(lba)
            assert one == payload(lba, size)

    def test_single_block_ops_route_to_one_shard(self):
        volume, _, _ = small_volume()
        volume.write_block(5, payload(5, volume.block_size))
        shard, _ = volume.shard_of(5)
        assert volume.shard_calls[shard] >= 1
        others = [
            calls for index, calls in enumerate(volume.shard_calls)
            if index != shard
        ]
        assert all(count == 0 for count in others)

    def test_trim_fans_out_and_unmaps(self):
        volume, devices, _ = small_volume(shards=3, stripe_blocks=4)
        size = volume.block_size
        data = b"".join(payload(lba, size) for lba in range(12))
        volume.write_blocks(0, 12, data)
        volume.trim(0, 12)
        for device in devices:
            assert all(
                device.imap.get(s_lba) is None for s_lba in range(4)
            )


class TestFaultContainment:
    def test_crash_hits_one_shard_only(self):
        volume, _, _ = small_volume()
        size = volume.block_size
        for lba in range(24):
            volume.write_block(lba, payload(lba, size))
        volume.crash_shard(1)
        assert volume.degraded
        for lba in range(24):
            shard, _ = volume.shard_of(lba)
            if shard == 1:
                with pytest.raises(ShardUnavailable) as err:
                    volume.read_block(lba)
                assert err.value.shard == 1
            else:
                data, _ = volume.read_block(lba)
                assert data == payload(lba, size)

    def test_media_fault_is_stamped_with_its_shard(self):
        volume, devices, disks = small_volume()
        size = volume.block_size
        for lba in range(24):
            volume.write_block(lba, payload(lba, size))
        victim = next(
            lba for lba in range(24) if volume.shard_of(lba)[0] == 2
        )
        _, s_lba = volume.shard_of(victim)
        sector = devices[2].imap.get(s_lba) * devices[2].sectors_per_block
        FaultPlane(bad_sectors={sector}, seed=1).install(disks[2])
        with pytest.raises(MediaError) as err:
            volume.read_block(victim)
        assert err.value.shard == 2
        assert volume.shard_faults[2] == 1
        # The sibling shards never noticed.
        for lba in range(24):
            if volume.shard_of(lba)[0] != 2:
                data, _ = volume.read_block(lba)
                assert data == payload(lba, size)

    def test_recover_shard_restores_service(self):
        volume, _, _ = small_volume()
        size = volume.block_size
        for lba in range(24):
            volume.write_block(lba, payload(lba, size))
        volume.crash_shard(0)
        outcome = volume.recover_shard(0)
        assert not volume.degraded
        assert outcome.scanned  # a crash leaves no power record
        for lba in range(24):
            data, _ = volume.read_block(lba)
            assert data == payload(lba, size)

    def test_whole_volume_recover_returns_one_outcome(self):
        """Three shards answer recover() in the same type as one: the
        fold of the per-shard outcomes, which stay reachable as parts."""
        volume, _, _ = small_volume()
        size = volume.block_size
        for lba in range(24):
            volume.write_block(lba, payload(lba, size))
        volume.crash_shard(1)  # one shard dies, the rest stop orderly
        volume.power_down()
        volume.crash()
        outcome = volume.recover()
        assert isinstance(outcome, RecoveryOutcome)
        assert not volume.degraded
        assert len(outcome.parts) == 3 and outcome.inner is None
        assert [part.scanned for part in outcome.parts] == [
            False, True, False
        ]
        assert outcome.scanned and not outcome.used_power_down_record
        assert outcome.records_read == sum(
            part.records_read for part in outcome.parts
        )
        assert outcome.elapsed == pytest.approx(
            sum(part.elapsed for part in outcome.parts)
        )
        for lba in range(24):
            assert volume.read_block(lba)[0] == payload(lba, size)

    def test_idle_skips_down_shards(self):
        volume, _, _ = small_volume()
        for lba in range(12):
            volume.write_block(lba, payload(lba, volume.block_size))
        volume.crash_shard(2)
        volume.idle(0.2)  # must not raise, must not touch shard 2
        assert volume.states[2].value == "down"


class TestVolumeFsck:
    def test_clean_volume_passes_deep_fsck(self):
        volume, _, _ = small_volume()
        for lba in range(24):
            volume.write_block(lba, payload(lba, volume.block_size))
        report = volume_fsck(volume, deep=True)
        assert report.ok, report.summary()
        assert report.checked_lbas > 0
        assert len(report.shard_reports) == 3

    def test_orphaned_shard_mapping_is_flagged(self):
        # Stripe width 3 leaves a sub-stripe remainder on each shard:
        # blocks the volume can never address.
        volume, devices, _ = small_volume(stripe_blocks=3)
        # Write past the volume's stripe range directly on a shard: a
        # mapping the volume's stripe map cannot account for.
        orphan = volume.shard_capacity
        assert orphan < devices[0].num_blocks
        devices[0].write_block(orphan, b"\xee" * volume.block_size)
        report = volume_fsck(volume)
        assert not report.ok
        assert any(v.kind == "shard-map" for v in report.violations)

    def test_capacity_disagreement_is_flagged(self):
        volume, _, _ = small_volume()
        volume.num_blocks += volume.stripe_blocks  # corrupt the stripe map
        report = volume_fsck(volume)
        assert not report.ok
        assert any(v.kind == "capacity" for v in report.violations)

    def test_fsck_summary_mentions_shards(self):
        volume, _, _ = small_volume()
        report = volume_fsck(volume)
        assert "3 shard(s)" in report.summary()
