"""Ablation: the track-fill threshold (Sections 2.3 / 4.2).

Sweeps the VLD's fill threshold and cross-checks against the Section 2.3
analytical model's preferred operating region.
"""

from .conftest import run_experiment


def test_ablation_fill_threshold(benchmark):
    results = run_experiment(benchmark, "ablation_compactor")

    # The measured spread at moderate utilization is modest -- consistent
    # with the model's shallow optimum region (Figure 2).
    values = list(results.values())
    assert max(values) < 2.5 * min(values)
