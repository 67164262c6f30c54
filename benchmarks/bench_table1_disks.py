"""Table 1: parameters of the HP97560 and Seagate ST19101 disks."""

from .conftest import run_experiment


def test_table1(benchmark):
    table = run_experiment(benchmark, "table1")

    assert table["HP97560"]["sectors_per_track"] == 72
    assert table["ST19101"]["sectors_per_track"] == 256
    assert table["ST19101"]["rpm"] == 10000
