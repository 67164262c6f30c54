"""Tests for the composed-fault torture harness.

The harness is itself a checker, so the important test is the
*checker-mutation* one: plant a bug (acked writes that never commit)
and prove the torture point catches it, then prove the minimizer can
shrink that failing plan while keeping it failing.
"""

import json
import os

import pytest

from repro.harness.torture import (
    FAMILIES,
    WORKLOADS,
    long_set,
    matrix,
    minimize,
    quick_set,
    torture_point,
    volume_quick_set,
    write_repro,
)
from repro.harness.sweep import run_sweep
from repro.nvm import NVWal
from repro.sim.stats import Breakdown
from repro.vlog.virtual_log import VirtualLog
from tests._pins import json_pin


class TestTorturePoint:
    def test_crash_torn_point_survives(self):
        verdict = torture_point(
            workload="small_writes", ops=60, crash_after=20, torn=True, seed=0
        )
        assert verdict["ok"], verdict["failures"]
        assert verdict["failures"] == []
        assert verdict["crashed_at"] is not None
        assert not verdict["orderly"]
        assert verdict["fsck"].get("violations", 0) == 0
        assert verdict["fsck"]["checked_blocks"] > 0

    def test_orderly_point_uses_power_record(self):
        verdict = torture_point(
            workload="overwrites", ops=40, crash_after=None, torn=False, seed=1
        )
        assert verdict["ok"], verdict["failures"]
        assert verdict["orderly"]
        assert verdict["recovery"]["used_power_down_record"]

    def test_flaky_point_exercises_retries(self):
        verdict = torture_point(
            workload="bursty_idle", ops=100, flaky=6, flaky_rate=0.5, seed=0
        )
        assert verdict["ok"], verdict["failures"]
        assert verdict["counters"]["retries"] > 0

    def test_unknown_workload_rejected(self):
        with pytest.raises(ValueError, match="unknown workload"):
            torture_point(workload="nope")

    def test_deterministic_verdicts(self):
        a = torture_point(workload="sequential", ops=50, crash_after=15, seed=3)
        b = torture_point(workload="sequential", ops=50, crash_after=15, seed=3)
        assert a == b


class TestMatrix:
    def test_quick_set_covers_every_workload_and_family(self):
        points = quick_set()
        assert len(points) == len(WORKLOADS) * len(FAMILIES)
        params = [p.params for p in points]
        assert {p["workload"] for p in params} == set(WORKLOADS)

    def test_long_set_is_the_multi_seed_grid(self):
        assert len(long_set()) == 8 * len(WORKLOADS) * len(FAMILIES)

    def test_points_name_the_importable_fn(self):
        point = matrix(seeds=(0,))[0]
        assert point.fn_name == "repro.harness.torture:torture_point"


#: sha256 over the sorted-JSON verdicts of ``quick_set()`` then
#: ``volume_quick_set()``, recorded at commit c6aec67 (before the two
#: plan runners became one) under PYTHONHASHSEED 0, 1 and random, and
#: re-recorded the same way when the recovery traversal stopped expanding
#: superseded map records: every verdict stays ``ok``; only
#: ``records_read``, ``retries`` and ``media_errors`` moved.  Again when
#: the recovery walk began taking the scan's records and reading
#: children in access-time order: every verdict stays ``ok``; the media
#: counters (which reads meet a seeded fault) and the shards' health
#: percentiles moved.
QUICK_SET_DIGEST = (
    "959df88a62ad0872d8dafb7221d39002c891312697b20523c74153ca51106932"
)


def test_quick_set_verdicts_are_pinned():
    """The identity golden of the harness itself: nothing either quick
    set observes -- verdict keys, counters, recovery facts, failure
    lines -- may move under a refactor of the runner."""
    points = quick_set() + volume_quick_set()
    verdicts = [r.value for r in run_sweep(points, jobs=1, cache=None)]
    assert len(verdicts) == 35 + 12
    assert json_pin(verdicts) == QUICK_SET_DIGEST


class TestCheckerMutation:
    """Plant a real durability bug and prove the torture point sees it."""

    @pytest.fixture()
    def lost_commits(self, monkeypatch):
        # Acked writes update the in-memory map but the map chunk never
        # reaches the log: every crash silently loses acknowledged data.
        monkeypatch.setattr(
            VirtualLog, "append",
            lambda self, chunk_id, entries, txn_id=0: Breakdown(),
        )

    def test_mutation_is_caught(self, lost_commits):
        verdict = torture_point(
            workload="small_writes", ops=60, crash_after=20, torn=False, seed=0
        )
        assert not verdict["ok"]
        assert verdict["failures"]

    def test_minimizer_shrinks_and_stays_failing(self, lost_commits):
        params = dict(
            workload="small_writes", ops=60, crash_after=20, torn=False
        )
        minimized = minimize(dict(params), seed=0)
        assert minimized["params"]["ops"] <= params["ops"]
        assert minimized["runs"] <= 40
        assert not torture_point(seed=0, **minimized["params"])["ok"]

    def test_write_repro_artifact(self, lost_commits, tmp_path):
        verdict = torture_point(
            workload="small_writes", ops=60, crash_after=20, torn=False, seed=0
        )
        verdict["params"] = dict(
            workload="small_writes", ops=60, crash_after=20, torn=False
        )
        minimized = {"params": verdict["params"], "seed": 0, "runs": 1}
        path = write_repro(verdict, minimized, directory=str(tmp_path))
        assert os.path.dirname(path) == str(tmp_path)
        artifact = json.loads(open(path).read())
        assert artifact["fn"] == "repro.harness.torture:torture_point"
        assert "torture_point(" in artifact["reproduce"]
        assert artifact["failures"]

    @pytest.fixture()
    def lost_nvm_log(self, monkeypatch):
        # Recovery finds the NVM log empty: every write acknowledged at
        # the tier's commit point but not yet destaged is gone.
        monkeypatch.setattr(
            NVWal, "_scan_log",
            lambda self: ([], False, Breakdown()),
        )

    def test_nvm_plan_shrinks_its_own_crash_point(
        self, lost_nvm_log, tmp_path
    ):
        paths = set()
        for family in ("nvm-crash", "nvm-crash+torn@depth4"):
            params = dict(FAMILIES[family], workload="small_writes")
            verdict = torture_point(seed=0, **params)
            assert not verdict["ok"], family
            verdict["params"] = params
            minimized = minimize(dict(params), seed=0)
            shrunk = minimized["params"]
            assert shrunk["nvm_crash_after"] < params["nvm_crash_after"]
            assert "crash_after" not in shrunk
            assert not torture_point(seed=0, **shrunk)["ok"]
            path = write_repro(verdict, minimized, directory=str(tmp_path))
            name = os.path.basename(path)
            assert f"-nvm{shrunk['nvm_crash_after']}" in name
            assert "--" not in name  # no empty crash_after field
            paths.add(path)
        assert len(paths) == 2  # one artifact per family, none overwritten

    def test_plans_differing_in_the_crash_point_write_two_files(
        self, tmp_path
    ):
        # A repro file names the whole crash point -- the ordinal, the
        # tear, the queue depth -- or one family's artifact overwrites
        # another's.
        paths = set()
        for family in ("crash+torn", "crash+torn@depth4"):
            params = dict(FAMILIES[family], workload="small_writes")
            verdict = {"failures": ["planted"], "params": params}
            minimized = {"params": params, "seed": 0, "runs": 1}
            paths.add(write_repro(verdict, minimized, directory=str(tmp_path)))
        assert sorted(os.path.basename(path) for path in paths) == [
            "torture-small_writes-120-35torn-seed0.json",
            "torture-small_writes-120-35torn@depth4-seed0.json",
        ]

    def test_minimize_refuses_passing_plan(self):
        with pytest.raises(ValueError, match="failing plan"):
            minimize(
                dict(workload="small_writes", ops=30, crash_after=10,
                     torn=False),
                seed=0,
            )
