"""Ablation: LFS cleaner policy (greedy vs cost-benefit) under churn."""

from .conftest import run_experiment


def test_ablation_cleaner_policy(benchmark):
    results = run_experiment(benchmark, "ablation_cleaner")

    for entry in results.values():
        assert entry["segments_cleaned"] > 0
    # Both policies stay in the same order of magnitude on uniform-random
    # churn (cost-benefit pays off on skewed workloads).
    latencies = [e["latency_ms"] for e in results.values()]
    assert max(latencies) < 4 * min(latencies)
