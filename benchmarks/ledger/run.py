#!/usr/bin/env python3
"""The performance ledger: five workloads, end to end and layer by layer.

Usage, from the repo root::

    python3 benchmarks/ledger/run.py [--seed N] [--json OUT]       # all five
    python3 benchmarks/ledger/run.py --workload NAME --seed N \
        --seconds S --trace 0|1                    # one, as BENCHMARK.json runs it

Each workload is run as several *measured* passes and
:data:`TRACED_PASSES` *traced* ones.  Every pass is a fresh ``python``
child process, started one at a time with ``PYTHONHASHSEED=0``; passes of
different workloads are interleaved round-robin so machine drift hits all
workloads alike.  Measured passes repeat until their measured phases add
up to ``--seconds`` (at least :data:`MIN_PASSES`, at most
:data:`MAX_PASSES`).  A measured pass times its measured phase in 16
chunks with a burst of a fixed calibration loop after each (no per-op
timing); a traced pass runs the same ops with every layer's public
methods wrapped (``spans.py``) and must reach the same ``sim_digest``.
Host seconds are reported corrected by the calibration rate seen during
the pass, which is what makes them comparable between runs on a shared
machine (README.md, "Noise").

The last line of output is the result object ``BENCHMARK.json``'s driver
reads (one line per workload when several ran): ``--trace 0`` puts the
end-to-end metrics in it, ``--trace 1`` the per-layer ones.  Exit status
is non-zero when any pass failed verification or the passes of one
workload disagree on ``sim_digest``.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parents[2]
# The command takes no PYTHONPATH: use the package this checkout holds.
sys.path.insert(0, str(ROOT / "src"))

import metrics  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import GAUGES, WORKLOADS, drive, no_wrap  # noqa: E402

SCHEMA = 1
DEFAULT_SEED = 11
#: Matches ``run_seconds`` in BENCHMARK.json.
DEFAULT_SECONDS = 5
MIN_PASSES = 3
MAX_PASSES = 7
TRACED_PASSES = 2
#: Calibration spread across a run's passes above which the host
#: numbers of that run should not be read as a regression.
NOISY_CALIBRATION = 0.10
#: Calibration-loop iterations per second on the reference box.  Host
#: speeds are reported as if the machine ran the loop at exactly this
#: rate (see README.md, "Noise").
REFERENCE_RATE = 1e7


def calibration_burst(loops: int = 200_000) -> int:
    """Fixed pure-Python integer loop, the machine-speed yardstick (same
    shape as ``bench_hotpath``'s, copied so the two benchmark
    directories stay independent).  ``drive`` times it."""
    acc = 0
    for i in range(loops):
        acc = (acc + i * i) & 0xFFFFFFFF
    return loops


# ----------------------------------------------------------------------
# One pass (runs in the child process; the self-test calls it directly)
# ----------------------------------------------------------------------


def _gc_collections() -> int:
    return sum(generation["collections"] for generation in gc.get_stats())


def run_pass(name: str, seed: int, scale: float, traced: bool) -> Dict:
    """Set up workload ``name``, run its measured phase, verify it."""
    tracer = Tracer() if traced else None
    if tracer is not None:
        tracer.install()
    try:
        wrap = tracer.wrap if tracer is not None else no_wrap
        workload = WORKLOADS[name](seed, scale, wrap)
        before = workload.counters()
        sim_before = workload.sim_seconds()
        gc_before = _gc_collections()
        start = time.perf_counter()
        work_s, calibration_s, loops = wrap("host.driver", drive)(
            workload,
            wrap("host.op", workload.step),
            wrap("host.calibration", calibration_burst),
        )
        end = time.perf_counter()
        gc_collections = _gc_collections() - gc_before
    finally:
        if tracer is not None:
            tracer.restore()
    after = workload.counters()
    sim_elapsed = workload.sim_seconds() - sim_before
    workload.verify()  # after the snapshots: its reads move the clocks
    counts = {
        key: value if key in GAUGES else value - before[key]
        for key, value in after.items()
    }
    mean_ms, p99_ms, samples = workload.sim_latency_ms()
    sim = {
        "sim_op_ms_mean": mean_ms,
        "sim_op_ms_p99": p99_ms,
        "sim_ops_per_sim_s": metrics.ratio(workload.attempted, sim_elapsed),
        "phys_bytes_per_user_byte": metrics.ratio(
            counts["disk.sectors_written"] * 512, workload.user_bytes
        ),
    }
    out = {
        "workload": name,
        "op_unit": workload.op_unit,
        "traced": traced,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "first_error": workload.first_error,
        # The ops alone, the calibration bursts between them, both.
        "measured_s": work_s,
        "calibration_ops_per_s": loops / calibration_s,
        "phase_s": end - start,
        "sim": sim,
        "sim_samples": samples,
        "counts": counts,
        "sim_digest": metrics.sim_digest(
            sim, counts, workload.attempted, workload.failed
        ),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
    }
    if tracer is not None:
        spans = tracer.aggregate(lo=start)
        # One host.op span per step; a step that stands for many ops
        # (the opaque run_multihost call) is shared out evenly.
        op_seconds = tracer.durations("host.op")
        per_span = workload.attempted / len(op_seconds)
        out["spans"] = spans
        out["per_layer"] = metrics.per_layer(
            counts,
            spans,
            tracer.aggregate(hi=start),
            workload.attempted,
            [seconds * 1e6 / per_span for seconds in op_seconds],
            gc_collections,
        )
    # Everything from the start of the measured phase to here; the
    # parent subtracts it from the child's wall time to get setup_s.
    out["tail_s"] = time.perf_counter() - start
    return out


# ----------------------------------------------------------------------
# The parent: spawn passes, fold them into one result per workload
# ----------------------------------------------------------------------


def spawn_pass(name: str, seed: int, scale: float, traced: bool) -> Dict:
    """Run one pass in a fresh interpreter."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    command = [
        sys.executable, str(Path(__file__).resolve()), "--child",
        "--workload", name, "--seed", str(seed), "--scale", repr(scale),
        "--trace", "1" if traced else "0",
    ]
    start = time.perf_counter()
    done = subprocess.run(
        command, env=env, stdout=subprocess.PIPE, timeout=170, check=True
    )
    wall = time.perf_counter() - start
    result = json.loads(done.stdout.decode().splitlines()[-1])
    result["setup_s"] = wall - result["tail_s"]
    return result


def _stat(values: List[float], value: float, unit: str) -> Dict:
    return {
        "value": value, "unit": unit, "min": min(values),
        "max": max(values), "n": len(values), "passes": values,
    }


def summarise(passes: List[Dict]) -> Dict:
    """Fold one workload's passes into its ledger entry."""
    measured = [p for p in passes if not p["traced"]]
    traced_passes = [p for p in passes if p["traced"]]
    first = measured[0]
    attempted = first["attempted"]
    units = {name: unit for name, unit, *_ in metrics.END_TO_END}

    def corrected(p: Dict, seconds: float) -> float:
        """Host seconds of pass ``p`` as they would read on a machine
        running the calibration loop at REFERENCE_RATE.  The loop ran in
        bursts between the ops, so it saw the machine the pass saw."""
        return seconds * p["calibration_ops_per_s"] / REFERENCE_RATE

    def phase_s(p: Dict) -> float:
        return corrected(p, p["measured_s"])

    # The least disturbed traced pass supplies the per-layer numbers.
    traced = min(traced_passes, key=phase_s)
    typical = statistics.median(phase_s(p) for p in measured)
    values = {
        "setup_s": [corrected(p, p["setup_s"]) for p in measured],
        "host_ops_per_s": [attempted / phase_s(p) for p in measured],
        "peak_rss_mb": [p["peak_rss_mb"] for p in measured],
        "failed_op_ratio": [p["failed"] / p["attempted"] for p in passes],
        "traced_slowdown": [phase_s(p) / typical for p in traced_passes],
    }
    end_to_end = {
        "setup_s": statistics.median(values["setup_s"]),
        "host_ops_per_s": attempted / typical,
        "peak_rss_mb": statistics.median(values["peak_rss_mb"]),
        "failed_op_ratio": max(values["failed_op_ratio"]),
        "traced_slowdown": phase_s(traced) / typical,
    }
    for name, value in first["sim"].items():
        values[name] = [p["sim"][name] for p in passes]
        end_to_end[name] = value
    calibrations = [p["calibration_ops_per_s"] for p in passes]
    calibration = statistics.median(calibrations)
    per_layer = dict(traced["per_layer"])
    per_layer["host.calibration_ops_per_s"] = calibration
    per_layer["host.calibration_spread"] = (
        max(calibrations) - min(calibrations)
    ) / calibration
    digests = sorted({p["sim_digest"] for p in passes})
    failed = sum(p["failed"] for p in passes)
    return {
        "op_unit": first["op_unit"],
        "attempted": attempted,
        "failed": failed,
        "first_error": next(
            (p["first_error"] for p in passes if p["first_error"]), ""
        ),
        "correct": failed == 0 and len(digests) == 1,
        "sim_digest": digests[0] if len(digests) == 1 else digests,
        "sim_samples": first["sim_samples"],
        "measured_passes": len(measured),
        # Uncorrected ops per wall second of each measured pass.
        "raw_ops_per_s": [attempted / p["measured_s"] for p in measured],
        "traced_wall_s": traced["measured_s"],
        "end_to_end": {
            name: _stat(values[name], end_to_end[name], units[name])
            for name, *_ in metrics.END_TO_END
        },
        "per_layer": {
            name: {"value": per_layer[name], "unit": unit}
            for name, unit, _ in metrics.PER_LAYER
        },
        "spans": traced["spans"],
    }


def environment(seed: int, seconds: float) -> Dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        ).stdout.decode().strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        # numpy switches the batch pricing backend at >= 32 candidates.
        "numpy": importlib.util.find_spec("numpy") is not None,
        "git_commit": commit,
        "seed": seed,
        "seconds": seconds,
    }


def run_ledger(
    names: List[str], seed: int, seconds: float, scale: float = 1.0
) -> Dict:
    """Run every pass of every named workload, round-robin."""
    passes: Dict[str, List[Dict]] = {name: [] for name in names}

    def next_pass(name: str) -> Optional[bool]:
        """``True``/``False`` for a traced/measured pass, ``None`` when
        the workload has all the passes it needs."""
        done = passes[name]
        traced = sum(p["traced"] for p in done)
        if traced < TRACED_PASSES and len(done) % 2:
            return True  # traced passes sit among the measured ones
        walls = [p["measured_s"] for p in done if not p["traced"]]
        if len(walls) < MIN_PASSES:
            return False
        if sum(walls) < seconds and len(walls) < MAX_PASSES:
            return False
        return True if traced < TRACED_PASSES else None

    pending = list(names)
    while pending:
        for name in list(pending):
            traced = next_pass(name)
            if traced is None:
                pending.remove(name)
                continue
            passes[name].append(spawn_pass(name, seed, scale, traced))
    return {
        "schema": SCHEMA,
        "env": environment(seed, seconds),
        "workloads": {name: summarise(passes[name]) for name in names},
    }


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------


def print_report(result: Dict) -> None:
    env = result["env"]
    print(
        f"ledger: {env['implementation']} {env['python']}, "
        f"nproc={env['nproc']}, numpy={'yes' if env['numpy'] else 'no'}, "
        f"commit={env['git_commit'][:12]}, seed={env['seed']}"
    )
    clocks = {name: clock for name, *_, clock in metrics.END_TO_END}
    for name, entry in result["workloads"].items():
        print(
            f"\n== {name}: {entry['attempted']} ops "
            f"(op = one {entry['op_unit']}), "
            f"{entry['measured_passes']} measured passes + "
            f"{entry['end_to_end']['traced_slowdown']['n']} traced, "
            f"{'verified' if entry['correct'] else 'FAILED'}, "
            f"sim_digest={str(entry['sim_digest'])[:16]}"
        )
        if entry["first_error"]:
            print(f"   first error: {entry['first_error']}")
        raw = entry["raw_ops_per_s"]
        print(
            f"   uncorrected ops per wall second: min {min(raw):.6g}, "
            f"max {max(raw):.6g} over the measured passes"
        )
        for metric, stat in entry["end_to_end"].items():
            spread = (
                f"  (min {stat['min']:.6g}, max {stat['max']:.6g}, "
                f"n={stat['n']})"
                if clocks[metric] == "host" else ""
            )
            if metric == "sim_op_ms_p99":
                spread = f"  ({entry['sim_samples']} samples)"
            print(
                f"   {metric:<28}{stat['value']:>14.6g} {stat['unit']:<6}"
                f"[{clocks[metric]}]{spread}"
            )
        print("   -- per layer (traced pass) --")
        for metric, stat in entry["per_layer"].items():
            print(f"   {metric:<44}{stat['value']:>14.6g} {stat['unit']}")
        wall = entry["traced_wall_s"]
        print(f"   -- self-time share of the traced {wall:.3f} s --")
        spans = sorted(
            entry["spans"].items(), key=lambda item: -item[1]["self_s"]
        )
        for span, row in spans:
            if span == "host.calibration":
                continue  # the yardstick, not the workload
            print(
                f"   {span:<28}{100 * row['self_s'] / wall:>7.2f} %"
                f"{row['calls']:>10} calls"
            )
        spread = entry["per_layer"]["host.calibration_spread"]["value"]
        if spread > NOISY_CALIBRATION:
            print(
                f"   WARNING: calibration moved {100 * spread:.1f} % between "
                "passes; this machine is noisy, read host numbers with care"
            )


def result_line(entry: Dict, trace: bool) -> str:
    """The object the benchmark contract wants on the last line."""
    if trace:
        chosen = entry["per_layer"]
    else:
        chosen = {
            name: stat for name, stat in entry["end_to_end"].items()
            if name not in metrics.NOT_IN_BENCHMARK_JSON
        }
    return json.dumps(
        {
            "correct": entry["correct"],
            "attempted": entry["attempted"],
            "failed": entry["failed"],
            "metrics": {
                name: {"value": stat["value"], "unit": stat["unit"]}
                for name, stat in chosen.items()
            },
        }
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", metavar="OUT")
    parser.add_argument("--scale", type=float, default=1.0,
                        help=argparse.SUPPRESS)
    parser.add_argument("--child", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(
            run_pass(args.workload, args.seed, args.scale, bool(args.trace))
        ))
        return 0
    names = [args.workload] if args.workload else list(WORKLOADS)
    result = run_ledger(names, args.seed, args.seconds, args.scale)
    print_report(result)
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(result, handle, indent=1, sort_keys=True)
            handle.write("\n")
    print()
    for name in names:
        print(result_line(result["workloads"][name], bool(args.trace)))
    correct = all(entry["correct"] for entry in result["workloads"].values())
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
