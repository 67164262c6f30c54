"""Determinism and caching contract of the parallel sweep engine.

The load-bearing guarantee: for every experiment, ``jobs=4`` produces
*exactly* the same structure as ``jobs=1``, and a second run against a
warm cache returns identical values without a single executor
submission.  (Point functions derive all randomness from their explicit
seeds, so neither process boundaries nor replay may change a digit.)
"""

import json

import pytest

from repro.blockdev.interpose import FaultPlan
from repro.harness import experiments, sweep
from repro.harness.cache import ResultCache
from repro.harness.sweep import (
    DroppedPointWarning,
    SweepPoint,
    run_sweep,
    sweep_values,
)

# Tiny-scale kwargs per experiment: enough points to exercise the grid,
# small enough workloads to keep the suite quick.
EXPERIMENTS = {
    "figure1": dict(fractions=[0.2, 0.7], trials=40),
    "figure2": dict(thresholds=[0.1, 0.6], trials=6),
    "figure6": dict(num_files=60),
    "figure7": dict(file_mb=1),
    "figure8": dict(
        file_mbs=[4, 17], updates=30, warmup=10,
        lfs_updates=200, lfs_warmup=50,
    ),
    "table2": dict(utilization=0.4, updates=20, warmup=5),
    "figure10": dict(
        burst_kbs=[128], idle_seconds=[0.0, 0.5], bursts=2,
        utilization=0.4,
    ),
    "figure11": dict(
        burst_kbs=[512], idle_seconds=[0.0, 0.1], bursts=2,
        utilization=0.4,
    ),
    # The UFS-on-VLD update point the allocator, fill-threshold and
    # map-record ablations share, and Table 2's cells on a third drive.
    "ablation_compactor": dict(updates=10, warmup=2),
    "future_trends": dict(updates=10, warmup=2),
}


# The same contract with StackConfig overrides riding in the points:
# a queue, an NVM tier, or a (non-fatal) fault plan is just another
# parameter -- parallel, cached, and keyed apart from the plain run.
STACK_CASES = {
    "table2-q4satf": ("table2", dict(queue_depth=4, sched="satf")),
    "table2-nvm": ("table2", dict(nvm="nvdimm")),
    "figure6-slow": ("figure6", dict(
        faults=FaultPlan(seed=5, slow_factor=3.0, slow_after_ops=20,
                         slow_duration_ops=200),
    )),
}
CASES = {name: (name, kwargs) for name, kwargs in EXPERIMENTS.items()}
CASES.update(
    (case, (name, dict(EXPERIMENTS[name], stack=stack)))
    for case, (name, stack) in STACK_CASES.items()
)


def canon(value) -> str:
    return json.dumps(value, sort_keys=True)


@pytest.mark.parametrize("case", sorted(CASES))
def test_parallel_and_cached_runs_match_serial(case, tmp_path):
    """jobs=4 == jobs=1, and a warm-cache rerun hits without submitting."""
    name, kwargs = CASES[case]
    fn = getattr(experiments, name)

    with sweep.configured(jobs=1, cache=None):
        serial = fn(**kwargs)

    cache = ResultCache(str(tmp_path / "cache"))
    if "stack" in kwargs:
        # Warm the cache with the plain run: the overridden run below
        # must still miss on every point, and differ.
        with sweep.configured(jobs=1, cache=cache):
            plain = fn(**EXPERIMENTS[name])
        assert canon(plain) != canon(serial)
    sweep.reset_stats()
    with sweep.configured(jobs=4, cache=cache):
        parallel = fn(**kwargs)
        cold = sweep.reset_stats()
        warm_result = fn(**kwargs)
        warm = sweep.reset_stats()

    assert canon(parallel) == canon(serial)
    assert canon(warm_result) == canon(serial)
    assert cold.cache_hits == 0
    assert cold.points == cold.cache_misses
    assert warm.submissions == 0
    assert warm.inline_runs == 0
    assert warm.cache_hits == warm.points == cold.points


def test_figure8_warns_on_dropped_points():
    """A file that cannot fit surfaces as a DroppedPointWarning, not a
    silently shorter curve."""
    with pytest.warns(DroppedPointWarning, match="figure8.*ufs-regular"):
        result = experiments.figure8(
            file_mbs=[4, 4000], updates=10, warmup=0,
            lfs_updates=10, lfs_warmup=0,
        )
    # The oversized point is gone from the curve; the small one remains.
    assert len(result["ufs-regular"]["utilization"]) == 1


def _square(*, seed, x):
    return {"seed": seed, "value": x * x}


def test_inline_fallback_without_fork(monkeypatch):
    """jobs>1 degrades gracefully to inline when the platform lacks fork."""
    monkeypatch.setattr(sweep, "fork_available", lambda: False)
    points = [
        SweepPoint(f"{__name__}:_square", {"x": x}, seed=x) for x in range(4)
    ]
    sweep.reset_stats()
    values = sweep_values(points, jobs=4, cache=None)
    stats = sweep.reset_stats()
    assert values == [{"seed": x, "value": x * x} for x in range(4)]
    assert stats.submissions == 0
    assert stats.inline_runs == 4


def test_results_ordered_and_timed():
    points = [
        SweepPoint(f"{__name__}:_square", {"x": x}, seed=0) for x in (3, 1, 2)
    ]
    results = run_sweep(points, jobs=2, cache=None)
    assert [r.value["value"] for r in results] == [9, 1, 4]
    assert all(r.seconds >= 0.0 and not r.cached for r in results)


def test_single_pending_point_runs_inline(tmp_path):
    """A sweep with at most one cache miss never pays for a pool."""
    cache = ResultCache(str(tmp_path))
    points = [
        SweepPoint(f"{__name__}:_square", {"x": x}, seed=0) for x in (1, 2)
    ]
    sweep_values(points, jobs=4, cache=cache)  # populate
    extra = points + [SweepPoint(f"{__name__}:_square", {"x": 9}, seed=0)]
    sweep.reset_stats()
    values = sweep_values(extra, jobs=4, cache=cache)
    stats = sweep.reset_stats()
    assert values[-1]["value"] == 81
    assert stats.cache_hits == 2
    assert stats.submissions == 0 and stats.inline_runs == 1


def test_bad_fn_name_rejected():
    with pytest.raises(ValueError, match="pkg.module:function"):
        sweep.resolve_point_fn("no-colon-here")


def test_jobs_must_be_positive():
    with pytest.raises(ValueError):
        run_sweep([], jobs=0)
    with pytest.raises(ValueError):
        with sweep.configured(jobs=0):
            pass
