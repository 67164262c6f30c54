"""Shape checks on the paper's experiments, at reduced scale.

These are the integration tests of the whole reproduction: each asserts
the qualitative claims of a table or figure (who wins, which direction
curves move) using workload sizes small enough for the test suite.
"""

import pytest

from repro.harness import experiments
from repro.harness.configs import StackConfig
from repro.sim.stats import COMPONENTS


class TestTable1:
    def test_matches_paper(self):
        table = experiments.table1()
        assert table["HP97560"]["sectors_per_track"] == 72
        assert table["ST19101"]["rpm"] == pytest.approx(10000)
        assert table["ST19101"]["scsi_overhead_ms"] == pytest.approx(0.1)


class TestFigure1:
    @pytest.fixture(scope="class")
    def result(self):
        return experiments.figure1(fractions=[0.1, 0.4, 0.8], trials=120)

    def test_model_tracks_simulation(self, result):
        for disk in ("HP97560", "ST19101"):
            for model, sim in zip(
                result[disk]["model_seconds"],
                result[disk]["simulated_seconds"],
            ):
                assert sim == pytest.approx(model, rel=1.0, abs=1e-3)

    def test_latency_decreasing_in_free_space(self, result):
        for disk in ("HP97560", "ST19101"):
            sims = result[disk]["simulated_seconds"]
            assert sims[0] > sims[-1]

    def test_seagate_order_of_magnitude_better(self, result):
        hp = result["HP97560"]["model_seconds"][1]
        sg = result["ST19101"]["model_seconds"][1]
        assert hp / sg > 5


class TestFigure2:
    def test_u_shape_and_model_agreement(self):
        result = experiments.figure2(
            thresholds=[0.05, 0.4, 0.9], trials=15
        )
        for disk in ("HP97560", "ST19101"):
            sims = result[disk]["simulated_seconds"]
            assert sims[1] < sims[0]  # middle beats too-rare switching
            assert sims[1] < sims[2]  # and too-frequent switching


class TestFigure6:
    @pytest.fixture(scope="class")
    def result(self):
        return experiments.figure6(num_files=200)

    def test_vld_speeds_up_ufs_writes(self, result):
        normalized = result["normalized"]["ufs-vld"]
        assert normalized["create"] > 1.3
        assert normalized["delete"] > 2.0

    def test_vld_read_close_to_regular(self, result):
        # Paper: slightly worse; we accept a narrow band around parity.
        assert 0.7 < result["normalized"]["ufs-vld"]["read"] < 1.4

    def test_lfs_asynchronous_writes_fast(self, result):
        assert result["normalized"]["lfs-regular"]["create"] > 1.3

    def test_lfs_reads_slower(self, result):
        assert result["normalized"]["lfs-regular"]["read"] < 1.0


class TestFigure7:
    @pytest.fixture(scope="class")
    def result(self):
        return experiments.figure7(file_mb=3)

    def test_sync_random_write_much_faster_on_vld(self, result):
        assert (
            result["ufs-vld"]["rand_write_sync"]
            > 2 * result["ufs-regular"]["rand_write_sync"]
        )

    def test_seq_read_after_random_write_collapses_on_vld(self, result):
        vld = result["ufs-vld"]
        assert vld["seq_read_again"] < 0.6 * vld["seq_read"]

    def test_in_place_keeps_locality(self, result):
        regular = result["ufs-regular"]
        assert regular["seq_read_again"] == pytest.approx(
            regular["seq_read"], rel=0.3
        )

    def test_lfs_has_no_sync_phase(self, result):
        assert "rand_write_sync" not in result["lfs-regular"]


class TestFigure8:
    @pytest.fixture(scope="class")
    def result(self):
        return experiments.figure8(
            file_mbs=[4, 17], updates=120, warmup=40,
            lfs_updates=2500, lfs_warmup=1500,
        )

    def test_vld_beats_update_in_place_everywhere(self, result):
        for vld, regular in zip(
            result["ufs-vld"]["latency_ms"],
            result["ufs-regular"]["latency_ms"],
        ):
            assert vld < regular

    def test_vld_latency_rises_with_utilization(self, result):
        latencies = result["ufs-vld"]["latency_ms"]
        assert latencies[-1] >= latencies[0]

    def test_lfs_cheap_inside_nvram_expensive_beyond(self, result):
        latencies = result["lfs-nvram-regular"]["latency_ms"]
        assert latencies[0] < 1.0  # 4 MB fits in 6.1 MB NVRAM
        assert latencies[-1] > 3 * latencies[0]


class TestTable2AndFigure9:
    @pytest.fixture(scope="class")
    def table(self):
        return experiments.table2(utilization=0.7, updates=80, warmup=30)

    def test_speedup_grows_with_technology(self, table):
        """Table 2's claim: the gap widens from (HP, SPARC) to (Seagate,
        SPARC) to (Seagate, UltraSPARC)."""
        hp_sparc = table["hp97560+sparc10"]["speedup"]
        sg_sparc = table["st19101+sparc10"]["speedup"]
        sg_ultra = table["st19101+ultra170"]["speedup"]
        assert sg_sparc > hp_sparc * 0.9
        assert sg_ultra > sg_sparc
        assert sg_ultra > 2.0

    def test_update_in_place_dominated_by_locate(self, table):
        """Figure 9: mechanical delay dominates update-in-place on the
        modern disk."""
        entry = table["st19101+sparc10"]
        assert entry["regular_locate"] > 0.5

    def test_virtual_log_balanced(self, table):
        """Figure 9: no single component dominates virtual logging on the
        modern platform."""
        entry = table["st19101+ultra170"]
        for component in ("scsi", "transfer", "locate", "other"):
            assert entry[f"vld_{component}"] < 0.75

    def test_figure9_reshape(self):
        shaped = experiments.figure9(
            utilization=0.7, updates=40, warmup=10
        )
        assert "st19101+sparc10/regular" in shaped
        entry = shaped["st19101+sparc10/vld"]
        fractions = [
            entry[c] for c in ("scsi", "transfer", "locate", "other")
        ]
        assert sum(fractions) == pytest.approx(1.0, abs=0.01)

    @pytest.mark.parametrize(
        "stack",
        [None, dict(queue_depth=4, sched="satf")],
        ids=["depth1", "depth4-satf"],
    )
    def test_figure9_decomposes_the_latency_it_prints(self, stack):
        """Each row's fractions split the total it prints: host time is
        part of every synchronous update, at any queue depth."""
        shaped = experiments.figure9(
            utilization=0.7, updates=40, warmup=10, stack=stack
        )
        for key, entry in shaped.items():
            assert entry["other"] > 0.0, key
            assert sum(entry[c] for c in COMPONENTS) == pytest.approx(
                1.0, abs=1e-9
            ), key


def test_update_file_is_sized_from_the_built_disk():
    """Table 2's and the idle sweeps' points size their update file from
    the disk the stack was built on, not the spec's default slice."""
    config = StackConfig(
        "ufs-vld", "ufs", "vld", num_cylinders=4
    ).to_params()
    cell = experiments._point_table2(
        seed=1, config=config, utilization=0.5, updates=5, warmup=0,
        compact_seconds=0.0,
    )
    assert cell["latency"] > 0.0
    latency = experiments._point_idle_burst(
        seed=1, config=config, utilization=0.5, burst_kb=16, idle=0.0,
        bursts=1,
    )
    assert latency > 0.0


class TestFigures10And11:
    def test_vld_profits_from_short_idle_intervals(self):
        """Figure 11: UFS-on-VLD latency improves along a continuum of
        small idle intervals."""
        result = experiments.figure11(
            burst_kbs=[512], idle_seconds=[0.0, 0.4], utilization=0.85,
            bursts=4,
        )
        latencies = result["512K"]["latency_ms"]
        assert latencies[1] <= latencies[0] * 1.05

    def test_lfs_needs_long_idle_intervals(self):
        """Figure 10: short idle intervals buy LFS little; long ones
        (enough to clean/flush) help."""
        result = experiments.figure10(
            burst_kbs=[504], idle_seconds=[0.0, 4.0], utilization=0.8,
            bursts=4,
        )
        latencies = result["504K"]["latency_ms"]
        assert latencies[1] <= latencies[0] * 1.05


class TestFigureQdepth:
    def test_depth_axis_and_satf_advantage(self):
        result = experiments.figure_qdepth(
            depths=[1, 4], workloads=("random-update",), requests=150
        )
        series = result["random-update"]
        assert set(series) == {"fifo", "scan", "satf"}
        # Depth 1 collapses every policy to the unscheduled baseline.
        baseline = series["fifo"]["mean_service_ms"][0]
        for policy in ("scan", "satf"):
            assert series[policy]["mean_service_ms"][0] == baseline
        # At depth 4 SATF reorders its way below FIFO (the acceptance
        # criterion, at figure scale).
        assert (
            series["satf"]["mean_service_ms"][1]
            < series["fifo"]["mean_service_ms"][1]
        )

    def test_result_shape(self):
        result = experiments.figure_qdepth(
            depths=[2], policies=("satf",), workloads=("sequential",),
            requests=60,
        )
        entry = result["sequential"]["satf"]
        assert entry["queue_depth"] == [2.0]
        for key in (
            "mean_service_ms", "p95_service_ms", "mean_response_ms",
            "elapsed_seconds",
        ):
            assert len(entry[key]) == 1
            assert entry[key][0] > 0.0
