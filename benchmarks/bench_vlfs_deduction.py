"""Extension: testing the paper's VLFS deduction directly.

Section 5.1 speculates that VLFS "should approximate the performance of
UFS on the VLD when we must write synchronously, while retaining the
benefits of LFS when asynchronous buffering is acceptable."  The paper
could only deduce this (VLFS was unimplemented); this reproduction built
VLFS, so the bench measures it.
"""

from .conftest import run_experiment


def test_vlfs_deduction(benchmark):
    results = run_experiment(benchmark, "vlfs_deduction")

    vlfs_sync, vlfs_async = results["vlfs"]
    vld_sync, _ = results["ufs-vld"]
    reg_sync, _ = results["ufs-regular"]
    _, lfs_async = results["lfs-regular"]
    # Synchronously: VLFS ~ UFS-on-VLD, far below update-in-place.
    assert vlfs_sync < 2.5 * vld_sync
    assert vlfs_sync < reg_sync / 2
    # Asynchronously: VLFS ~ LFS (memory-speed buffering).
    assert vlfs_async < 2 * lfs_async + 1.0
