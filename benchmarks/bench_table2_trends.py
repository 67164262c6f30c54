"""Table 2: the update-in-place vs virtual-log gap across technology
generations (HP+SPARC -> Seagate+SPARC -> Seagate+UltraSPARC)."""

from .conftest import run_experiment


def test_table2(benchmark):
    table = run_experiment(benchmark, "table2")

    hp_sparc = table["hp97560+sparc10"]["speedup"]
    sg_sparc = table["st19101+sparc10"]["speedup"]
    sg_ultra = table["st19101+ultra170"]["speedup"]
    # The paper's progression: 2.6x -> 5.1x -> 9.9x.  We assert the
    # monotone widening and rough magnitudes.
    assert sg_ultra > sg_sparc >= hp_sparc * 0.8
    assert hp_sparc > 1.5
    assert sg_ultra > 4.0
