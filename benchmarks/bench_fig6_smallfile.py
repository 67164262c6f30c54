"""Figure 6: small-file create/read/delete on the four stacks,
normalized to UFS on the regular disk."""

from .conftest import run_experiment


def test_figure6(benchmark):
    result = run_experiment(benchmark, "figure6")

    normalized = result["normalized"]
    # VLD accelerates UFS's synchronous create/delete substantially.
    assert normalized["ufs-vld"]["create"] > 1.3
    assert normalized["ufs-vld"]["delete"] > 2.0
    # Reads are not helped (slightly hurt, within a band).
    assert 0.6 < normalized["ufs-vld"]["read"] < 1.5
    # LFS buffers metadata: asynchronous create/delete far ahead of UFS.
    assert normalized["lfs-regular"]["create"] > 1.3
    assert normalized["lfs-regular"]["delete"] > 2.0
    # LFS reads are slower (user-level port, no read-ahead).
    assert normalized["lfs-regular"]["read"] < 1.0
