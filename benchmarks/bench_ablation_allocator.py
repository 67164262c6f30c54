"""Ablation: eager-allocation policy (Section 4.2's choices).

Compares NEAREST (Figure 1's idealised search), GREEDY_CYLINDER (one-way
sweep), and TRACK_FILL (the paper's compactor-assisted configuration) on
random synchronous updates at moderate utilization.
"""

from repro.disk.specs import ST19101

from .conftest import run_experiment


def test_ablation_allocator_policy(benchmark):
    results = run_experiment(benchmark, "ablation_allocator")

    # All eager policies must beat the update-in-place half-rotation floor.
    half_rotation_ms = ST19101.rotation_time / 2 * 1e3
    for name, latency in results.items():
        assert latency < 2 * half_rotation_ms + 2.0
    # The policies are within a small factor of each other at moderate
    # utilization (they diverge near full, which Table 2's setup shows).
    values = list(results.values())
    assert max(values) < 3 * min(values)
