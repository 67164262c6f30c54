#!/usr/bin/env python3
"""Alternating parent/change pairs of the performance ledger, filed as a
claims record.

Usage, from the repo root::

    python3 benchmarks/pairs.py --parent REV [--change REV] \\
        --workload vld_sync_update --metric host_ops_per_s \\
        --threshold 1.10 --seeds 11 23 --pairs 10 --slug NAME

Both revisions are extracted with ``git archive REV | tar -x`` into a
temporary directory (local, no network), and each runs its own
``benchmarks/ledger/run.py`` unchanged, as a subprocess, with ``--trace
0`` -- the command ``BENCHMARK.json`` runs, for its ``run_seconds``.
For every seed, ``--pairs`` pairs run one after the other; the parent
goes first in even pairs and the change in odd ones, so drift on a
shared machine hits both sides alike.  Whether the metric is better
higher or lower is read from ``BENCHMARK.json``'s ``end_to_end`` list.
A pair's ratio is change over parent for a metric where higher is better
and parent over change where lower is, so a ratio above 1 is a gain
either way.

The record, ``benchmarks/claims/<slug>.json``, keeps every run's result
line, ``sim_digest`` and calibration rate, the interpreter, per-pair
ratios, and per seed the median and quartiles of the ratios and of each
side's values: every pass, not only a mean.  The claim is met when, at
every seed, the median ratio reaches the threshold, the change is ahead
in at least nine of every ten pairs, and the gap between the two sides'
medians exceeds the parent's quartile spread (q3 - q1).
``tests/test_claims.py`` checks every record against itself and against
``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parents[1]
CLAIMS = ROOT / "benchmarks" / "claims"
BENCHMARK = ROOT / "BENCHMARK.json"
SCHEMA = 1


def quartiles(values: List[float]) -> Dict[str, float]:
    """Median and inclusive quartiles of ``values``."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def extract(rev: str, into: Path) -> Path:
    """The committed tree of ``rev``, unpacked under ``into``."""
    tree = into / rev.replace("/", "_")
    tree.mkdir()
    archive = subprocess.run(
        ["git", "archive", rev], cwd=ROOT, check=True, stdout=subprocess.PIPE
    ).stdout
    subprocess.run(["tar", "-x"], cwd=tree, input=archive, check=True)
    return tree


def benchmark_terms(metric: str) -> Tuple[str, float]:
    """``metric``'s direction and the run length, as ``BENCHMARK.json``
    declares them."""
    spec = json.loads(BENCHMARK.read_text())
    for entry in spec["end_to_end"]:
        if entry["name"] == metric:
            return entry["better"], float(spec["run_seconds"])
    raise SystemExit(f"{metric} is not an end-to-end metric of {BENCHMARK.name}")


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> Dict:
    """One ``run.py`` in ``tree``: its result line, digest and calibration."""
    out = tree / "pairs-run.json"
    done = subprocess.run(
        [
            sys.executable, "benchmarks/ledger/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", repr(seconds), "--trace", "0",
            "--json", str(out),
        ],
        cwd=tree, stdout=subprocess.PIPE, check=True,
        env={key: value for key, value in os.environ.items() if key != "PYTHONPATH"},
    )
    full = json.loads(out.read_text())
    entry = full["workloads"][workload]
    return {
        "result": json.loads(done.stdout.decode().splitlines()[-1]),
        "sim_digest": entry["sim_digest"],
        "calibration_ops_per_s": entry["per_layer"]["host.calibration_ops_per_s"]["value"],
    }


def ratio(parent: float, change: float, better: str) -> float:
    return change / parent if better == "higher" else parent / change


def summarise(claim: Dict, runs: List[Dict]) -> Dict:
    """Per seed: the pairs' ratios, the quartiles of ratios and sides,
    and the gap between the sides' medians in the better direction.
    ``met`` when at every seed the median ratio reaches the threshold,
    at least nine in ten pairs are better, and the gap exceeds the
    parent's q3 - q1."""
    metric, better = claim["metric"], claim["better"]
    per_seed = {}
    for seed in claim["seeds"]:
        sides = {
            side: [
                r["result"]["metrics"][metric]["value"]
                for r in runs
                if r["seed"] == seed and r["side"] == side
            ]
            for side in ("parent", "change")
        }
        ratios = [ratio(p, c, better) for p, c in zip(sides["parent"], sides["change"])]
        parent, change = quartiles(sides["parent"]), quartiles(sides["change"])
        gap = change["median"] - parent["median"]
        per_seed[str(seed)] = {
            "ratios": ratios,
            "ratio": quartiles(ratios),
            "parent": parent,
            "change": change,
            "pairs_better": sum(r > 1.0 for r in ratios),
            "median_gap": gap if better == "higher" else -gap,
        }
    return {
        "per_seed": per_seed,
        "met": all(
            s["ratio"]["median"] >= claim["threshold"]
            and 10 * s["pairs_better"] >= 9 * len(s["ratios"])
            and s["median_gap"] > s["parent"]["q3"] - s["parent"]["q1"]
            for s in per_seed.values()
        ),
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", default="HEAD")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--metric", default="host_ops_per_s")
    parser.add_argument("--threshold", type=float, required=True)
    parser.add_argument("--seeds", type=int, nargs="+", default=[11])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--slug", required=True)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2, one with each side first")
    better, seconds = benchmark_terms(args.metric)
    out = CLAIMS / f"{args.slug}.json"
    revs = {
        side: subprocess.run(
            ["git", "rev-parse", rev], cwd=ROOT, check=True, stdout=subprocess.PIPE
        ).stdout.decode().strip()
        for side, rev in (("parent", args.parent), ("change", args.change))
    }
    claim = {
        "workload": args.workload, "metric": args.metric, "better": better,
        "threshold": args.threshold, "seeds": args.seeds,
    }
    runs = []
    with tempfile.TemporaryDirectory() as scratch:
        trees = {side: extract(rev, Path(scratch)) for side, rev in revs.items()}
        for seed in args.seeds:
            for pair in range(args.pairs):
                order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
                for side in order:
                    run = run_once(trees[side], args.workload, seed, seconds)
                    runs.append({"seed": seed, "pair": pair, "side": side, **run})
                    value = run["result"]["metrics"][args.metric]["value"]
                    print(f"seed {seed} pair {pair} {side:<6} {args.metric} {value:.6g}",
                          flush=True)
    record = {
        "schema": SCHEMA,
        "claim": claim,
        "revisions": revs,
        "seconds": seconds,
        "pairs": args.pairs,
        "interpreter": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(),
        },
        "runs": runs,
        "summary": summarise(claim, runs),
    }
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    for seed, stats in record["summary"]["per_seed"].items():
        print(f"seed {seed}: median ratio {stats['ratio']['median']:.4f} "
              f"(q1 {stats['ratio']['q1']:.4f}, q3 {stats['ratio']['q3']:.4f}), "
              f"{stats['pairs_better']}/{len(stats['ratios'])} pairs better, "
              f"median gap {stats['median_gap']:.6g} against parent spread "
              f"{stats['parent']['q3'] - stats['parent']['q1']:.6g}")
    print(f"claim {'met' if record['summary']['met'] else 'NOT met'}: {out}")
    agree = all(
        len({run["sim_digest"] for run in runs if run["seed"] == seed}) == 1
        for seed in args.seeds
    )
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
