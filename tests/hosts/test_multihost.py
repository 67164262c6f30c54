"""The multi-host driver: overlap semantics, determinism, striping.

The headline guarantees:

* one host at depth 1 hides *exactly zero* think time (the closed loop
  serializes think and service, so their intervals cannot intersect);
* several hosts over one disk hide real think time (someone is thinking
  while the disk serves someone else);
* a run is a pure function of its arguments -- the full report,
  including the event trace, is identical across repeats and across
  process boundaries (``jobs=1`` vs ``jobs=N`` through the sweep pool).
"""

import gc
import weakref

import pytest

import repro.hosts.multihost as multihost
from repro.disk.specs import DISKS
from repro.harness.sweep import SweepPoint, run_sweep
from repro.hosts.multihost import format_report, run_multihost

SPEC = DISKS["st19101"]


def quick(hosts=4, disks=1, **kwargs):
    kwargs.setdefault("requests_per_host", 40)
    kwargs.setdefault("seed", 3)
    return run_multihost(SPEC, hosts=hosts, disks=disks, **kwargs)


class TestOverlapSemantics:
    def test_single_host_hides_exactly_zero_think(self):
        report = quick(hosts=1)
        assert report["hidden_think_seconds"] == 0.0
        assert report["think_seconds"] > 0.0
        assert report["max_outstanding"] == 1

    def test_four_hosts_hide_real_think_time(self):
        report = quick(hosts=4)
        hidden = report["hidden_think_seconds"]
        assert 0.0 < hidden <= report["think_seconds"]

    def test_zero_think_records_no_think_intervals(self):
        report = quick(hosts=2, think_seconds=0.0)
        assert report["think_seconds"] == 0.0
        assert report["hidden_think_seconds"] == 0.0

    def test_per_host_think_times(self):
        report = quick(hosts=2, think_seconds=[0.0, 0.0005])
        # Host 1 thought, host 0 did not.
        assert report["think_seconds"] == pytest.approx(40 * 0.0005)

    def test_accounting_adds_up(self):
        report = quick(hosts=3, disks=2)
        assert report["requests"] == 3 * 40
        busy = report["disk_busy_seconds"]
        assert sorted(busy) == ["disk0", "disk1"]
        assert all(seconds > 0.0 for seconds in busy.values())
        # Each disk's busy intervals are sequential, so no disk can be
        # busy longer than the run; the run cannot beat the busiest disk.
        assert max(busy.values()) <= report["elapsed_seconds"] + 1e-9
        assert report["mean_response_ms"] >= report["mean_service_ms"]

    def test_tail_percentiles_reported(self):
        report = quick(hosts=4)
        assert (
            report["p50_response_ms"]
            <= report["p95_response_ms"]
            <= report["p99_response_ms"]
            <= report["p999_response_ms"]
        )
        assert report["p999_service_ms"] > 0.0

    def test_striping_reaches_every_disk(self):
        report = quick(hosts=2, disks=3, workload="sequential")
        busy = report["disk_busy_seconds"]
        assert sorted(busy) == ["disk0", "disk1", "disk2"]
        assert all(seconds > 0.0 for seconds in busy.values())

    def test_validation(self):
        with pytest.raises(ValueError, match="workload"):
            quick(workload="nope")
        with pytest.raises(ValueError, match="positive"):
            quick(hosts=0)
        with pytest.raises(ValueError, match="2 think times for 3"):
            quick(hosts=3, think_seconds=[0.1, 0.2])
        with pytest.raises(ValueError, match="non-negative"):
            quick(hosts=1, think_seconds=-0.1)
        for sectors in (0, -8):
            with pytest.raises(ValueError, match="request_sectors"):
                quick(request_sectors=sectors)


class TestDeterminism:
    @pytest.mark.parametrize("workload", ["random-update", "sequential", "mixed"])
    def test_full_report_identical_across_repeats(self, workload):
        first = quick(hosts=3, disks=2, workload=workload, trace=True)
        second = quick(hosts=3, disks=2, workload=workload, trace=True)
        assert first == second  # includes the full (time, seq, name) trace

    def test_seed_changes_the_run(self):
        assert quick(seed=3) != quick(seed=4)

    def test_jobs1_matches_jobsN_through_the_sweep_pool(self):
        """The cross-process determinism pin: the same multihost points
        executed inline and via the fork pool return equal values."""
        points = [
            SweepPoint(
                "repro.harness.experiments:_point_multihost",
                {
                    "disk_name": "st19101",
                    "hosts": hosts,
                    "disks": 2,
                    "requests_per_host": 25,
                    "workload": "random-update",
                    "policy": "fifo",
                    "think_us": 200.0,
                },
                seed=3,
            )
            for hosts in (1, 2, 4)
        ]
        inline = [r.value for r in run_sweep(points, jobs=1, cache=None)]
        pooled = [r.value for r in run_sweep(points, jobs=4, cache=None)]
        assert inline == pooled


class TestShardedMode:
    def test_sharded_bank_matches_plain_disks_on_shared_keys(self):
        """shards=N is the same simulation as disks=N -- only the
        reporting changes (bank names and the per_shard section)."""
        plain = quick(hosts=4, disks=3)
        sharded = quick(hosts=4, disks=1, shards=3)
        assert sharded["shards"] == 3
        assert "per_shard" in sharded
        skip = {"shards", "per_shard", "disk_busy_seconds"}
        for key, value in plain.items():
            if key in skip:
                continue
            assert sharded[key] == value, key
        # Same busy time per bank member, different names.
        assert sorted(sharded["disk_busy_seconds"]) == [
            "shard0", "shard1", "shard2"
        ]
        assert sorted(sharded["disk_busy_seconds"].values()) == sorted(
            plain["disk_busy_seconds"].values()
        )

    def test_per_shard_only_when_sharded(self):
        assert "per_shard" not in quick(hosts=2, disks=2)
        assert "shards" not in quick(hosts=2, disks=2)

    def test_slow_window_grows_the_limping_shards_tail(self):
        slow = {"shard": 1, "factor": 8.0, "after": 10, "ops": 60}
        report = quick(hosts=4, disks=1, shards=3, shard_slow=slow)
        rows = report["per_shard"]["shards"]
        limping = next(r for r in rows if r["shard"] == "shard1")
        healthy = [r for r in rows if r["shard"] != "shard1"]
        assert limping["ops_slowed"] > 0
        assert limping["slow_extra_seconds"] > 0.0
        assert all(r["ops_slowed"] == 0 for r in healthy)
        assert limping["p99_response_ms"] > max(
            r["p99_response_ms"] for r in healthy
        )

    def test_degraded_window_accounting(self):
        slow = {"shard": 0, "factor": 6.0, "after": 5, "ops": 40}
        report = quick(hosts=4, disks=1, shards=3, shard_slow=slow)
        window = report["per_shard"]["degraded_window"]
        assert window["end"] > window["start"]
        assert window["seconds"] == pytest.approx(
            window["end"] - window["start"]
        )
        rows = report["per_shard"]["shards"]
        assert window["completed"] == sum(
            r["completed_in_window"] for r in rows
        )
        assert window["requests_per_second"] == pytest.approx(
            window["completed"] / window["seconds"]
        )
        for row in rows:
            assert row["busy_in_window_seconds"] <= (
                window["seconds"] + 1e-9
            )

    def test_sharded_run_is_deterministic(self):
        slow = {"shard": 2, "factor": 4.0, "after": 8, "ops": 30}
        first = quick(hosts=3, disks=1, shards=3, shard_slow=slow)
        second = quick(hosts=3, disks=1, shards=3, shard_slow=slow)
        assert first == second

    def test_validation(self):
        with pytest.raises(ValueError, match="not both"):
            quick(disks=2, shards=2)
        with pytest.raises(ValueError, match="positive"):
            quick(disks=1, shards=0)
        with pytest.raises(ValueError, match="requires shards"):
            quick(disks=2, shard_slow={"shard": 0, "factor": 2.0})
        with pytest.raises(ValueError, match="out of range"):
            quick(disks=1, shards=2,
                  shard_slow={"shard": 5, "factor": 2.0})

    def test_format_report_renders_shard_lines(self):
        slow = {"shard": 1, "factor": 8.0, "after": 10, "ops": 60}
        report = quick(hosts=2, disks=1, shards=3, shard_slow=slow)
        text = format_report(report)
        assert "shard1" in text
        assert "degraded" in text


class TestFormatReport:
    def test_renders_the_headline_numbers(self):
        report = quick(hosts=2)
        text = format_report(report)
        assert "2 host(s) x 1 disk(s)" in text
        assert "p999=" in text
        assert "hidden_think=" in text



class TestTeardown:
    @pytest.mark.parametrize("shape", [dict(disks=2), dict(shards=2)])
    def test_a_finished_run_frees_its_engine(self, monkeypatch, shape):
        """No reference cycle outlives a run: with the cyclic collector
        off, the engine -- its heap, its intervals, every process -- is
        freed the moment ``run_multihost`` returns."""
        built = []
        engine_class = multihost.EventEngine

        def recording_engine(*args, **kwargs):
            engine = engine_class(*args, **kwargs)
            built.append(weakref.ref(engine))
            return engine

        monkeypatch.setattr(multihost, "EventEngine", recording_engine)
        enabled = gc.isenabled()
        gc.disable()
        try:
            quick(hosts=3, **shape)
            alive = [ref() is not None for ref in built]
        finally:
            if enabled:
                gc.enable()
        assert alive == [False]
