#!/usr/bin/env python3
"""Compare two ledger result files: ``compare.py A.json B.json``.

One row per workload x end-to-end metric, A as the base and B as the
candidate: both values with the min/max of their passes, the ratio B/A,
and a verdict against the metric's recorded bound:

``same``        B is within the bound of A, and the passes of each set
                agree with each other to within the bound.
``better``      every pass of B reads better than every pass of A.
``worse``       B is worse than A by more than the bound and every pass
                of B reads worse than every pass of A.
``unresolved``  anything else: the sets' min/max ranges overlap and are
                wider than the bound, so the runs cannot tell.

Simulated metrics repeat exactly for a seed, so for them any difference
is ``better`` or ``worse`` (a speed-only change must leave them ``same``;
a design change moves them on purpose).  Exit status is 1 when any row
is ``worse``, 2 when the files cannot be compared.
"""

from __future__ import annotations

import json
import sys
from typing import Dict, List, Tuple

import metrics


def verdict(
    a: Dict, b: Dict, better: str, bound: float, exact: bool
) -> str:
    sign = 1.0 if better == "lower" else -1.0
    if exact:
        if a["value"] == b["value"]:
            return "same"
        return "worse" if sign * (b["value"] - a["value"]) > 0 else "better"
    # Positive = B worse, as a share of A.
    worse_by = sign * (b["value"] - a["value"]) / a["value"]
    if better == "lower":
        all_better, all_worse = b["max"] < a["min"], b["min"] > a["max"]
    else:
        all_better, all_worse = b["min"] > a["max"], b["max"] < a["min"]
    width = max((s["max"] - s["min"]) / s["value"] for s in (a, b))
    if all_better:
        return "better"
    if all_worse and worse_by > bound:
        return "worse"
    if worse_by > bound or width > bound:
        return "unresolved"
    return "same"


def compare(a: Dict, b: Dict) -> Tuple[List[str], int]:
    """Report lines and the number of ``worse`` rows."""
    lines = []
    worse = 0
    for name, entry_a in a["workloads"].items():
        entry_b = b["workloads"].get(name)
        if entry_b is None:
            lines.append(f"{name}: missing from B")
            continue
        same = entry_a["sim_digest"] == entry_b["sim_digest"]
        lines.append(
            f"== {name}: sim_digest "
            f"{'identical' if same else 'DIFFERS'}"
        )
        for metric, _unit, better, bound, _clock in metrics.END_TO_END:
            stat_a = entry_a["end_to_end"][metric]
            stat_b = entry_b["end_to_end"][metric]
            result = verdict(
                stat_a, stat_b, better, bound, metric in metrics.EXACT
            )
            worse += result == "worse"
            ratio = (
                f"{stat_b['value'] / stat_a['value']:.4f}"
                if stat_a["value"] else "-"
            )
            lines.append(
                f"   {metric:<26}"
                f"A {stat_a['value']:>11.6g} "
                f"[{stat_a['min']:.6g}, {stat_a['max']:.6g}] n={stat_a['n']}"
                f"  B {stat_b['value']:>11.6g} "
                f"[{stat_b['min']:.6g}, {stat_b['max']:.6g}] n={stat_b['n']}"
                f"  B/A {ratio} (base A, {stat_a['unit']}; {better} is "
                f"better; bound "
                f"{'exact' if metric in metrics.EXACT else f'{bound:.0%}'})"
                f"  {result}"
            )
    return lines, worse


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    results = []
    for path in argv:
        with open(path) as handle:
            results.append(json.load(handle))
    a, b = results
    if a["env"]["seed"] != b["env"]["seed"]:
        print(
            f"seeds differ ({a['env']['seed']} vs {b['env']['seed']}): "
            "simulated metrics only compare exactly for one seed",
            file=sys.stderr,
        )
        return 2
    print(
        f"A: {argv[0]} (commit {a['env']['git_commit'][:12]}, "
        f"python {a['env']['python']})"
    )
    print(
        f"B: {argv[1]} (commit {b['env']['git_commit'][:12]}, "
        f"python {b['env']['python']})"
    )
    lines, worse = compare(a, b)
    print("\n".join(lines))
    print(f"\n{worse} row(s) worse")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
