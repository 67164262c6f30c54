"""Figure 7: large-file bandwidths per phase on the four stacks."""

from .conftest import run_experiment


def test_figure7(benchmark):
    result = run_experiment(benchmark, "figure7")

    # Synchronous random writes: VLD far ahead of update-in-place.
    assert (
        result["ufs-vld"]["rand_write_sync"]
        > 2 * result["ufs-regular"]["rand_write_sync"]
    )
    # Sequential read after random write collapses on log/eager layouts
    # but not on update-in-place.
    assert (
        result["ufs-vld"]["seq_read_again"]
        < 0.6 * result["ufs-vld"]["seq_read"]
    )
    assert (
        result["lfs-regular"]["seq_read_again"]
        < 0.8 * result["lfs-regular"]["seq_read"]
    )
    assert (
        result["ufs-regular"]["seq_read_again"]
        > 0.7 * result["ufs-regular"]["seq_read"]
    )
    # The VLD also speeds the *asynchronous* random writes (flush phase).
    assert (
        result["ufs-vld"]["rand_write_async"]
        >= 0.9 * result["ufs-regular"]["rand_write_async"]
    )
