"""Self-test of the ledger at tiny scale.

Run with ``PYTHONPATH=src python -m pytest benchmarks/ledger`` (tier-1
``testpaths`` does not include this directory).  Every workload runs
in-process at ~2 % of its op count.
"""

import importlib
import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SCALE = 0.02
SEED = 11

#: Layers each workload is meant to bypass: no span of theirs may appear.
BYPASSED = {
    "vld_sync_update": ("nvm.", "volume.", "sim.", "hosts.", "ufs", "lfs",
                        "blockdev."),
    "fs_small_files": ("nvm.", "volume.", "sim.", "hosts."),
    "stack_mixed_q4": ("sim.", "hosts.", "ufs", "lfs", "blockdev."),
    "multihost_engine": ("vlog.", "nvm.", "volume.", "ufs", "lfs",
                         "blockdev."),
    "crash_recover": ("volume.", "sim.", "hosts.", "ufs", "lfs",
                      "blockdev."),
}


def _patched_methods():
    return [
        (cls, method, cls.__dict__[method])
        for _name, module, cls_name, methods in spans.LAYER_MAP
        for cls in [getattr(importlib.import_module(module), cls_name)]
        for method in methods
    ]


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def passes(request):
    """(workload, measured pass, traced pass, measured pass on seed+1)."""
    name = request.param
    originals = _patched_methods()
    measured = run.run_pass(name, SEED, SCALE, traced=False)
    traced = run.run_pass(name, SEED, SCALE, traced=True)
    other = run.run_pass(name, SEED + 1, SCALE, traced=False)
    restored = all(
        cls.__dict__[method] is original
        for cls, method, original in originals
    )
    return name, measured, traced, other, restored


def test_no_failed_ops(passes):
    _name, measured, traced, other, _ = passes
    for result in (measured, traced, other):
        assert result["attempted"] >= 1
        assert result["failed"] == 0, result["first_error"]


def test_digest_is_a_function_of_the_seed(passes):
    name, measured, traced, other, _ = passes
    again = run.run_pass(name, SEED, SCALE, traced=False)
    assert again["sim_digest"] == measured["sim_digest"]
    # Wrapping the classes changed nothing the simulation can see.
    assert traced["sim_digest"] == measured["sim_digest"]
    assert other["sim_digest"] != measured["sim_digest"]


def test_class_patches_are_restored(passes):
    assert passes[4]


def test_every_metric_is_present_and_finite(passes):
    _name, measured, traced, _other, _ = passes
    entry = run.summarise(
        [dict(p, setup_s=0.5) for p in (measured, traced)]
    )
    assert list(entry["end_to_end"]) == [m[0] for m in metrics.END_TO_END]
    assert list(entry["per_layer"]) == [m[0] for m in metrics.PER_LAYER]
    for table in (entry["end_to_end"], entry["per_layer"]):
        for metric, stat in table.items():
            assert math.isfinite(stat["value"]), metric
    assert entry["end_to_end"]["failed_op_ratio"]["value"] == 0
    assert entry["correct"]
    for metric in metrics.END_TO_END:
        if metric[0] not in metrics.NOT_IN_BENCHMARK_JSON:
            assert entry["end_to_end"][metric[0]]["value"] > 0, metric[0]
    line = json.loads(run.result_line(entry, trace=False))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}


def test_spans_nest_and_account_for_the_wall_time(passes):
    _name, _measured, traced, _other, _ = passes
    rows = traced["spans"]
    assert all(row["self_s"] >= 0.0 for row in rows.values())
    total_self = sum(row["self_s"] for row in rows.values())
    wall = traced["phase_s"]
    assert total_self <= wall
    # The driver span covers the whole measured phase (calibration
    # bursts included, as host.calibration), so the self times
    # partition it: nothing is lost between the layers.
    assert total_self >= 0.9 * wall
    assert traced["measured_s"] <= wall - rows["host.calibration"]["self_s"]


def test_bypassed_layers_record_no_calls(passes):
    name, _measured, traced, _other, _ = passes
    for span in traced["spans"]:
        assert not span.startswith(BYPASSED[name]), span


def test_benchmark_json_repeats_the_metric_tables():
    with open(HERE.parents[1] / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert spec["run_seconds"] == run.DEFAULT_SECONDS
    assert spec["paths"] == ["benchmarks/ledger"]
    assert [
        (m["name"], m["unit"], m["better"], m["bound"])
        for m in spec["end_to_end"]
    ] == [
        m[:4] for m in metrics.END_TO_END
        if m[0] not in metrics.NOT_IN_BENCHMARK_JSON
    ]
    assert [
        (m["name"], m["unit"], m["better"]) for m in spec["per_layer"]
    ] == list(metrics.PER_LAYER)


def _stat(value, lo, hi):
    return {"value": value, "min": lo, "max": hi, "n": 3, "unit": "x"}


@pytest.mark.parametrize(
    "a, b, better, exact, expected",
    [
        (_stat(100, 90, 100), _stat(101, 92, 101), "higher", False, "same"),
        (_stat(100, 90, 100), _stat(130, 110, 130), "higher", False, "better"),
        (_stat(100, 90, 100), _stat(60, 50, 60), "higher", False, "worse"),
        (_stat(100, 60, 100), _stat(70, 55, 70), "higher", False,
         "unresolved"),
        (_stat(100, 60, 100), _stat(99, 58, 99), "higher", False,
         "unresolved"),
        (_stat(2.0, 2.0, 2.0), _stat(2.0, 2.0, 2.0), "lower", True, "same"),
        (_stat(2.0, 2.0, 2.0), _stat(2.1, 2.1, 2.1), "lower", True, "worse"),
        (_stat(2.0, 2.0, 2.0), _stat(1.9, 1.9, 1.9), "lower", True, "better"),
    ],
)
def test_compare_verdicts(a, b, better, exact, expected):
    assert compare.verdict(a, b, better, 0.25, exact) == expected
