"""The CLI's whole acceptance matrix, pinned.

Every flag, typed with a valid value other than its default (and beside
the flag it needs), is tried beside every run ``python -m
repro.harness`` can select: each mode flag, each registry record and the
bare all-experiments run.  Each pair either exits 2 with nothing on
stdout, or reaches its run: ``Experiment.run`` and the three mode
runners are patched to raise, so nothing simulates, and ``--list``
returns having printed the records.  The sorted ``(flags, run,
outcome)`` list is hashed, so a flag that starts or stops being
accepted somewhere moves the hash.
"""

import hashlib
import json
import re

import pytest

from repro.harness import __main__ as cli
from repro.harness.registry import EXPERIMENTS, Experiment

#: Each flag with a valid non-default value, then the flag it needs.
#: ``--cache`` and ``--trace`` name paths under the test's directory.
FLAGS = [
    ["--full"],
    ["--list"],
    ["--scrub"],
    ["--volume-demo"],
    ["--torture"],
    ["--volume", "--torture"],
    ["--families", "crash", "--torture"],
    ["--jobs", "2"],
    ["--cache", "cache"],
    ["--no-cache"],
    ["--cache-stats"],
    ["--trace", "trace.jsonl"],
    ["--metrics"],
    ["--faults", "crash_after=40"],
    ["--queue-depth", "4"],
    ["--sched", "satf"],
    ["--nvm", "slow-pcm"],
    ["--nvm-lat", "3e-6", "--nvm", "nvdimm"],
    ["--nvm-cap", "1048576", "--nvm", "nvdimm"],
    ["--hosts", "4"],
    ["--disks", "2"],
    ["--shards", "3"],
    ["--shard-slow", "shard=1,factor=8", "--shards", "3"],
]

#: Every run: the four modes, the 21 records, and all of them.
RUNS = [["--list"], ["--scrub"], ["--volume-demo"], ["--torture"]] + [
    [name] for name in EXPERIMENTS
] + [[]]

#: sha256 of the sorted ``[flags, run, outcome]`` list, recorded before
#: the flag checks became one rule, under PYTHONHASHSEED 0, 1 and random.
MATRIX_SHA256 = (
    "d69fd3f1813f1ce4054a37ecda88cc38f6cdf96dae32bad88ae5ec49f0e1979b"
)


class _Reached(Exception):
    pass


def _reached(*args, **kwargs):
    raise _Reached


def _outcome(argv, capsys) -> str:
    try:
        cli.main(argv)
    except _Reached:
        capsys.readouterr()
        return "reached"
    except SystemExit as exc:
        captured = capsys.readouterr()
        assert (exc.code, captured.out) == (2, ""), argv
        return "refused"
    # Only --list returns without reaching a patched runner.
    assert capsys.readouterr().out.split() == list(EXPERIMENTS), argv
    return "listed"


def test_every_flag_is_in_the_matrix(capsys):
    with pytest.raises(SystemExit):
        cli.main(["--help"])
    typed = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
    assert typed - {"--help"} == {flags[0] for flags in FLAGS}


def test_acceptance_matrix_is_pinned(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(Experiment, "run", _reached)
    for runner in ("_run_torture", "_run_scrub_demo", "_run_volume_demo"):
        monkeypatch.setattr(cli, runner, _reached)
    matrix = sorted(
        (" ".join(flags), " ".join(run) or "all", _outcome(flags + run, capsys))
        for flags in FLAGS for run in RUNS
    )
    assert len(matrix) == len(FLAGS) * (len(EXPERIMENTS) + 5)
    digest = hashlib.sha256(json.dumps(matrix).encode()).hexdigest()
    assert digest == MATRIX_SHA256
