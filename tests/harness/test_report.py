import functools

import pytest

from repro.harness.report import format_table, series_to_csv


class TestFormatTable:
    def test_alignment_and_title(self):
        text = format_table(
            ["name", "value"],
            [["a", 1.5], ["long-name", 20]],
            title="My Table",
        )
        lines = text.splitlines()
        assert lines[0] == "My Table"
        assert "name" in lines[1] and "value" in lines[1]
        assert set(lines[2]) <= {"-", " "}
        assert "1.500" in text  # floats get 3 decimals
        assert "20" in text

    def test_empty_rows(self):
        text = format_table(["x"], [])
        assert "x" in text

    def test_no_title(self):
        text = format_table(["a"], [[1]])
        assert not text.startswith("\n")


class TestSeriesToCsv:
    def test_columns(self):
        csv = series_to_csv({"x": [1, 2], "y": [0.5, 0.25]})
        lines = csv.splitlines()
        assert lines[0] == "x,y"
        assert lines[1] == "1,0.5"
        assert lines[2] == "2,0.25"

    def test_ragged_series_padded(self):
        csv = series_to_csv({"x": [1, 2, 3], "y": [9]})
        lines = csv.splitlines()
        assert lines[2] == "2,"

    def test_empty(self):
        assert series_to_csv({}) == ""


def _sweep_lines(out):
    """Each ``[sweep NAME]`` line of a ``--cache-stats`` run, by NAME."""
    return {
        line.split("]")[0].split()[-1]: line
        for line in out.splitlines()
        if line.startswith("  [sweep ")
    }


def _figure9_table(out):
    return out[out.index("Figure 9\n"):out.index("[figure9 regenerated")]


class TestHarnessCli:
    def test_list(self, capsys):
        from repro.harness.__main__ import main

        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "figure8" in out and "table2" in out

    def test_unknown_experiment(self, capsys):
        from repro.harness.__main__ import main

        assert main(["figure99"]) == 2

    def test_runs_table1(self, capsys):
        from repro.harness.__main__ import main

        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "HP97560" in out
        assert "256" in out

    def test_quick_figure9_is_the_quick_table2s_runs(self, capsys, tmp_path):
        """Figure 9 reshapes Table 2's runs: after Table 2 in the same
        invocation it asks for no points at all; run alone it asks for
        the quick Table 2's points (every one a cache hit) and prints the
        same table."""
        from repro.harness.__main__ import main

        argv = ["--cache", str(tmp_path), "--cache-stats"]
        assert main(argv + ["table2", "figure9"]) == 0
        both = capsys.readouterr().out
        stats = _sweep_lines(both)
        assert "6 points: 0 cached" in stats["table2"]
        assert "figure9" not in stats
        assert main(argv + ["figure9"]) == 0
        alone = capsys.readouterr().out
        assert "6 points: 6 cached" in _sweep_lines(alone)["figure9"]
        assert _figure9_table(alone) == _figure9_table(both)

    def test_cold_figure9_after_table2_runs_no_points(self, capsys):
        from repro.harness.__main__ import main

        assert main(["--no-cache", "--cache-stats", "table2", "figure9"]) == 0
        out = capsys.readouterr().out
        assert list(_sweep_lines(out)) == ["table2"]
        assert "6 points: 0 cached, 0 parallel (in 0 tasks), 6 inline" in out
        assert "Figure 9" in _figure9_table(out)

    def test_scrub_demo_ends_with_the_data_intact(self, capsys):
        from repro.harness.__main__ import main

        assert main(["--scrub"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "LOST" not in "\n".join(lines)
        assert lines[-1].startswith("re-read lba 5: 0 new retries")
        assert lines[-1].endswith("data intact")

    def test_scrub_demo_fails_when_it_prints_lost(self, capsys, monkeypatch):
        from repro.harness.__main__ import main
        from repro.vlog.vld import VirtualLogDisk

        read_block = VirtualLogDisk.read_block

        def corrupted(self, lba):
            data, breakdown = read_block(self, lba)
            return bytes(len(data)), breakdown

        monkeypatch.setattr(VirtualLogDisk, "read_block", corrupted)
        assert main(["--scrub"]) == 1
        assert capsys.readouterr().out.splitlines()[-1].endswith("data LOST")

    def test_volume_demo_ends_with_every_block_intact(self, capsys):
        from repro.harness.__main__ import main

        assert main(["--volume-demo"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "16 failed fast with ShardUnavailable" in lines[1]
        assert "tripped=True" in lines[2]
        assert "volume-fsck clean" in lines[-1]
        assert lines[-1].endswith("48/48 blocks intact")

    @pytest.mark.parametrize(
        "argv,flag,target",
        [
            (["--torture", "--nvm", "--jobs", "2"], "--nvm", "--torture"),
            (["--queue-depth", "4", "figure1"], "--queue-depth", "figure1"),
            (["--sched", "satf", "figure_nvm"], "--sched", "figure_nvm"),
            (["--metrics"], "--metrics", "table1"),
            (["--hosts", "4", "table1"], "--hosts", "table1"),
            (["--disks", "2", "figure6"], "--disks", "figure6"),
            (["--shards", "3", "--shard-slow", "shard=1,factor=8", "table1"],
             "--shards", "table1"),
            (["--torture", "--hosts", "4"], "--hosts", "--torture"),
        ],
    )
    def test_stack_flag_that_would_do_nothing_is_an_error(
        self, capsys, argv, flag, target
    ):
        """An experiment flag is never silently ignored (and a stack flag
        never silently serialises the run): the error names the flag and
        what it was aimed at."""
        from repro.harness.__main__ import main

        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        message = capsys.readouterr().err.splitlines()[-1]
        assert flag in message and target in message

    @pytest.mark.parametrize(
        "spec,names",
        [
            ("shard=1,factor=nan", "factor"),
            ("shard=1,factor=inf", "factor"),
            ("shard=1,factor=0.5", "factor"),
            ("shard=7,factor=8", "shard 7"),
        ],
    )
    def test_bad_shard_slow_is_a_usage_error(self, capsys, spec, names):
        """A fail-slow factor that is not a finite number >= 1, or a
        shard outside --shards, is refused before any point runs."""
        from repro.harness.__main__ import main

        argv = ["--no-cache", "--shards", "3", "--shard-slow", spec,
                "figure_multihost"]
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        message = capsys.readouterr().err.splitlines()[-1]
        assert "--shard-slow" in message and names in message

    @pytest.mark.parametrize(
        "value,name",
        [
            ("--nvm-lat=nan", "figure_nvm"),
            ("--nvm-lat=-1e-3", "figure_nvm"),
            ("--nvm-lat=inf", "figure_nvm"),
            ("--nvm-cap=0", "figure_nvm"),
            ("--nvm-cap=-5", "figure_nvm"),
            ("--nvm-cap=4000", "figure_nvm"),
            ("--nvm-cap=4000", "table2"),
        ],
    )
    def test_bad_nvm_override_is_a_usage_error(self, capsys, value, name):
        """A store latency the part refuses, or a capacity the
        write-ahead tier refuses, is refused before any point runs."""
        from repro.harness.__main__ import main

        with pytest.raises(SystemExit) as excinfo:
            main(["--no-cache", "--nvm", "nvdimm", value, name])
        assert excinfo.value.code == 2
        message = capsys.readouterr().err.splitlines()[-1]
        assert value.partition("=")[0] in message

    def test_volume_families_restrict_the_volume_matrix(self, capsys):
        """--families applies to whichever table --volume selects."""
        from repro.harness.__main__ import main

        argv = ["--torture", "--volume", "--no-cache",
                "--families", "shard-crash"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "volume torture matrix: 3 plans" in out
        assert "all 3 plans survived" in out

    def test_single_device_family_is_unknown_to_the_volume_matrix(
        self, capsys
    ):
        from repro.harness.__main__ import main

        argv = ["--torture", "--volume", "--no-cache", "--families", "crash"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "plans" not in captured.out  # nothing ran
        assert "unknown torture families: crash" in captured.err
        assert "shard-crash" in captured.err  # names the known ones

    def test_worker_crash_exits_3_with_context(self, capsys, monkeypatch):
        """--faults is an ordinary parameter now, so the injected crash
        happens inside a pool worker; it must come back across the
        process boundary as the same DeviceCrashed -- structured context
        included -- and take the CLI's exit-3 path."""
        from repro.blockdev.interpose import DeviceCrashed, FaultPlan
        from repro.harness import experiments, sweep
        from repro.harness.__main__ import main

        plan = FaultPlan(crash_after_ops=50)
        with sweep.configured(jobs=1, cache=None):
            with pytest.raises(DeviceCrashed) as inline:
                experiments.figure6(num_files=400, stack={"faults": plan})
        assert inline.value.context() and inline.value.__cause__ is None

        crossed = []
        real = experiments.figure6

        @functools.wraps(real)
        def spy(**kwargs):
            try:
                return real(**kwargs)
            except DeviceCrashed as crash:
                crossed.append((str(crash), crash.context()))
                # concurrent.futures chains the worker's traceback on.
                assert "RemoteTraceback" in type(crash.__cause__).__name__
                raise

        monkeypatch.setattr(experiments, "figure6", spy)
        status = main(["--jobs", "2", "--no-cache",
                       "--faults", "crash_after=50", "figure6"])
        assert status == 3
        assert crossed == [(str(inline.value), inline.value.context())]
        assert str(inline.value) in capsys.readouterr().err
