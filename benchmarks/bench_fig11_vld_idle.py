"""Figure 11: UFS on the VLD, latency vs idle-interval length.

The contrast with Figure 10: the compactor moves data at (sub-)track
granularity, so the VLD profits from a continuum of *short* idle intervals
and behaves predictably, where LFS needs segment-sized idle time.
"""

from .conftest import run_experiment


def test_figure11(benchmark):
    result = run_experiment(benchmark, "figure11")

    for burst, series in result.items():
        latencies = series["latency_ms"]
        # Latency never degrades with idle time and stays in a tight,
        # predictable band (the paper's contrast with LFS's variance).
        assert latencies[-1] <= latencies[0] * 1.1
        assert max(latencies) < 4 * min(latencies)
        # Sub-second idle intervals already suffice: these are *much*
        # shorter than the multi-second intervals Figure 10 sweeps.
        assert max(series["idle_seconds"]) <= 1.0
