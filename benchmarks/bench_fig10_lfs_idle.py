"""Figure 10: LFS (with NVRAM) latency as a function of idle-interval
length, one curve per burst size."""

from .conftest import run_experiment


def test_figure10(benchmark):
    result = run_experiment(benchmark, "figure10")

    # Idle time helps: with long intervals every burst is absorbed and
    # flushed/cleaned in the background.
    for burst, series in result.items():
        latencies = series["latency_ms"]
        assert latencies[-1] <= latencies[0] * 1.05
    # Small bursts reach memory speed with enough idle time (point D).
    smallest = result["128K"]["latency_ms"]
    assert smallest[-1] < 1.0
