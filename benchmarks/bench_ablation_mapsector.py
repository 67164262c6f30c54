"""Ablation: map-record size (512-byte sectors vs whole 4 KB blocks).

Section 3.2 writes "the piece of the table that contains the new map
entry to a free *sector*"; with 4-byte entries the whole map costs ~24 KB
(Section 4.2).  This bench shows why that choice matters: single free
sectors remain easy to place near the head even when aligned 4 KB runs
are scarce, so sector-sized records keep the per-write map overhead low
at high utilization.
"""

from .conftest import run_experiment


def test_ablation_map_record_size(benchmark):
    results = run_experiment(benchmark, "ablation_mapsector")

    # Sector-sized records must not be slower than block-sized ones; at
    # high utilization they are strictly better.
    assert results[512] <= results[4096] * 1.05
