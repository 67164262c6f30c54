"""Extension: idle-time read-locality reorganization (Section 3.4).

Figure 7 shows eager writing's price: sequential reads after random
writes collapse.  The paper points at reorganization as the cure without
building it; this bench measures how much of the lost bandwidth the
:class:`ReadReorganizer` recovers.
"""

from .conftest import run_experiment


def test_reorganizer_recovers_sequential_bandwidth(benchmark):
    results = run_experiment(benchmark, "reorganizer")

    assert results["after random writes"] < results["freshly written"]
    # The reorganizer recovers a large share of the lost bandwidth.
    recovered = results["after reorganization"]
    assert recovered > 1.5 * results["after random writes"]
    assert recovered > 0.6 * results["freshly written"]
