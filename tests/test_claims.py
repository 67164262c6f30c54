"""Every speed claim in ``benchmarks/claims/`` agrees with itself.

A claims record (written by ``benchmarks/pairs.py``) keeps every run of
alternating parent/change pairs of the performance ledger.  Recomputed
from those runs here: both sides of a seed reached one ``sim_digest``
and failed no op; each pair holds one run of each side, the parent first
in half of them; the ratios and the medians of ratios and of each side
are those of the stored values; and "met" follows from the gain rule:
at every seed the median ratio reaches the threshold, at least nine in
ten pairs are better, and the gap between the sides' medians exceeds
the parent's quartile spread.  The metric's direction and the run length
are those ``BENCHMARK.json`` declares.
"""

import json
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
CLAIMS = ROOT / "benchmarks" / "claims"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
RECORDS = sorted(CLAIMS.glob("*.json"))


def test_there_is_a_claim_to_check():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=[p.stem for p in RECORDS])
def test_a_claims_record_agrees_with_itself(path):
    record = json.loads(path.read_text())
    claim = record["claim"]
    metric, better = claim["metric"], claim["better"]
    declared = {entry["name"]: entry["better"] for entry in BENCHMARK["end_to_end"]}
    assert better == declared[metric]
    assert record["seconds"] == BENCHMARK["run_seconds"]
    met = []
    for seed in claim["seeds"]:
        runs = [run for run in record["runs"] if run["seed"] == seed]
        assert len({run["sim_digest"] for run in runs}) == 1, f"seed {seed}"
        assert all(run["result"]["correct"] and run["result"]["failed"] == 0 for run in runs)
        values = {"parent": [], "change": []}
        parent_first = 0
        for pair in range(record["pairs"]):
            sides = [run["side"] for run in runs if run["pair"] == pair]
            assert sorted(sides) == ["change", "parent"], f"seed {seed} pair {pair}"
            parent_first += sides[0] == "parent"
            for run in runs:
                if run["pair"] == pair:
                    values[run["side"]].append(run["result"]["metrics"][metric]["value"])
        assert parent_first == (record["pairs"] + 1) // 2
        ratios = [
            c / p if better == "higher" else p / c
            for p, c in zip(values["parent"], values["change"])
        ]
        stated = record["summary"]["per_seed"][str(seed)]
        assert stated["ratios"] == pytest.approx(ratios, rel=1e-12)
        assert stated["ratio"]["median"] == pytest.approx(statistics.median(ratios), rel=1e-12)
        for side in ("parent", "change"):
            assert stated[side]["median"] == pytest.approx(
                statistics.median(values[side]), rel=1e-12
            )
            assert stated[side]["q1"] <= stated[side]["median"] <= stated[side]["q3"]
        pairs_better = sum(r > 1.0 for r in ratios)
        assert stated["pairs_better"] == pairs_better
        gap = statistics.median(values["change"]) - statistics.median(values["parent"])
        gap = gap if better == "higher" else -gap
        assert stated["median_gap"] == pytest.approx(gap, rel=1e-12)
        q1, _, q3 = statistics.quantiles(values["parent"], n=4, method="inclusive")
        met.append(
            statistics.median(ratios) >= claim["threshold"]
            and 10 * pairs_better >= 9 * len(ratios)
            and gap > q3 - q1
        )
    assert record["summary"]["met"] == all(met)
