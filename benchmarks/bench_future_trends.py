"""Extension: the paper's closing prediction, extrapolated one step.

"As the current technology trends continue, we expect that the
performance advantage of this approach will become increasingly
important."  This bench extends Table 2 with a projected ~2004 drive
(platter bandwidth +40 %/yr, 15k RPM, seeks -10 %/yr) and checks that the
update-in-place vs virtual-log gap keeps widening.
"""

from .conftest import run_experiment


def test_future_disk_widens_the_gap(benchmark):
    results = run_experiment(benchmark, "future_trends")

    speedups = [results[d][2] for d in ("hp97560", "st19101", "future2004")]
    # The gap keeps widening disk generation over disk generation.
    assert speedups[1] > speedups[0]
    assert speedups[2] > speedups[1]
