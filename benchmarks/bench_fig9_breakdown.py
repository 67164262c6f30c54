"""Figure 9: latency breakdown (SCSI / transfer / locate / other) for
update-in-place vs virtual logging across the three platforms."""

from repro.sim.stats import COMPONENTS

from .conftest import run_experiment


def test_figure9(benchmark):
    result = run_experiment(benchmark, "figure9")

    # Update-in-place becomes increasingly dominated by mechanical delay.
    assert result["st19101+sparc10/regular"]["locate"] > 0.5
    assert result["st19101+ultra170/regular"]["locate"] > 0.6
    # Virtual logging slashes 'locate'...
    for platform in ("hp97560+sparc10", "st19101+sparc10",
                     "st19101+ultra170"):
        assert (
            result[f"{platform}/vld"]["locate"]
            < result[f"{platform}/regular"]["locate"]
        )
    # ... and stays balanced between processor and disk on the modern
    # platform: no component above 3/4.
    entry = result["st19101+ultra170/vld"]
    assert all(entry[c] < 0.75 for c in COMPONENTS)
    # On the old disk, SCSI overhead is a visible share of VLD latency.
    assert result["hp97560+sparc10/vld"]["scsi"] > 0.15
