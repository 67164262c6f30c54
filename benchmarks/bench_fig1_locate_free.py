"""Figure 1: time to locate the first free sector vs disk utilization,
analytical model vs eager-writing simulation, for both drives."""

from .conftest import run_experiment


def test_figure1(benchmark):
    result = run_experiment(benchmark, "figure1")

    # Shape assertions: model tracks simulation; latency monotone in
    # utilization; Seagate ~an order of magnitude below HP.
    for disk in ("HP97560", "ST19101"):
        sims = result[disk]["simulated_seconds"]
        models = result[disk]["model_seconds"]
        assert sims[0] > sims[-1]
        for model, sim in zip(models, sims):
            assert sim < 4 * model + 5e-4
    mid = len(result["HP97560"]["free_fraction"]) // 2
    assert (
        result["HP97560"]["model_seconds"][mid]
        > 5 * result["ST19101"]["model_seconds"][mid]
    )
