"""Figure 2: average latency to locate free sectors while filling empty
tracks, as a function of the track-switch threshold; model vs simulation."""

from .conftest import run_experiment


def test_figure2(benchmark):
    result = run_experiment(benchmark, "figure2")

    # U-shape: the middle beats both extremes, in model and simulation.
    for disk in ("HP97560", "ST19101"):
        for key in ("model_seconds", "simulated_seconds"):
            series = result[disk][key]
            middle = min(series[3:7])
            assert middle < series[0]
            assert middle <= series[-1]
