"""Hot-path microbenchmarks and the perf-regression gate.

Measures the simulator's hottest paths -- the ones every eagerly-written
block pays for (Section 4.2's per-write free-space query):

* ``free_run_query``    -- ``FreeSpaceMap.nearest_free_run`` latency on a
  fragmented drive.
* ``mark_roundtrip``    -- ``mark_used``/``mark_free`` accounting.
* ``allocator_throughput`` -- end-to-end ``EagerAllocator`` allocate/free
  cycles under the paper's TRACK_FILL policy.
* ``compactor_pass``    -- blocks moved per wall-second by the idle-time
  free-space compactor on a fragmented VLD.
* ``satf_pick_next``    -- SATF pick-next over a full queue: the per-service
  cost the request scheduler pays pricing every pending request with the
  mechanics model.
* ``vld_write_blocks``  -- logical blocks per wall-second through
  multi-block ``write_blocks`` on a standing VLD: the batched
  data-movement path end to end (run-granular allocation, coalesced
  media writes, one-pass map bookkeeping).
* ``compactor_data_move`` -- blocks relocated per wall-second by the
  compactor's data-movement pass, driven directly through ``run_for`` on
  a fragmented multi-cylinder VLD (the regime where the outward-walking
  hole search matters).

Wall-clock numbers are useless across machines, so every metric is also
recorded *normalized*: divided by the throughput of a fixed pure-Python
calibration loop re-measured immediately before that metric (a single
up-front calibration lets scheduler noise later in the run skew the
ratios; an adjacent one sees the same machine the metric saw).  The
committed baseline
(``benchmarks/BENCH_hotpath.json``) stores the normalized scores; CI
re-runs the suite and fails when any normalized score regresses by more
than the tolerance (25 %) or when a metric drops below one of the
*absolute* normalized floors that lock in a past speedup (>=3x
``free_run_query`` over the per-sector reference map, which now lives in
``tests/disk/reference_freemap.py``; >=2x ``allocator_throughput`` and
``compactor_pass``, >=2.5x ``satf_pick_next`` over the pre-batching
schema-2 baseline; >=2x ``vld_write_blocks`` and ``compactor_data_move``
over the pre-batched-movement scalar path).  ``--check`` also surfaces
interpreter drift: the baseline records the CPython it was measured on,
and a mismatch with the running interpreter is reported (normalization
absorbs most of the skew, so it warns rather than fails).

Usage::

    python benchmarks/bench_hotpath.py                      # print + emit
    python benchmarks/bench_hotpath.py --json out.json      # choose output
    python benchmarks/bench_hotpath.py \
        --check benchmarks/BENCH_hotpath.json --tolerance 0.25

Also collected by pytest (``pytest benchmarks/bench_hotpath.py``) as a
smoke test asserting the ``free_run_query`` floor.
"""

from __future__ import annotations

import argparse
import json
import platform
import random
import statistics
import sys
import time
from typing import Callable, Dict

from repro.disk.disk import Disk
from repro.disk.freemap import FreeSpaceMap
from repro.disk.geometry import DiskGeometry
from repro.disk.specs import ST19101
from repro.vlog.allocator import AllocationPolicy, EagerAllocator
from repro.vlog.vld import VirtualLogDisk

#: Bump when the metric set or workload shapes change incompatibly.
#: 3: baseline re-recorded from the CI perf interpreter (CPython 3.12)
#: after the batch-mechanics rework; absolute floors added.
#: 4: ``vld_write_blocks`` and ``compactor_data_move`` metrics added for
#: the batched data-movement path; baseline re-recorded (median of 5) on
#: the CI perf interpreter.
SCHEMA = 4

#: Metrics the regression gate compares (all normalized ops/sec,
#: higher is better).
GATED_METRICS = (
    "free_run_query",
    "mark_roundtrip",
    "allocator_throughput",
    "compactor_pass",
    "satf_pick_next",
    "vld_write_blocks",
    "compactor_data_move",
)

#: Absolute normalized floors locking in past speedups.
#: The pre-batching (schema-2) code, re-measured on the CI perf
#: interpreter (CPython 3.12) under this file's per-metric
#: normalization, scores allocator_throughput 0.00192, compactor_pass
#: 0.00034, and satf_pick_next 0.00322; the batch pricing rework must
#: hold >=2x on the first two and >=2.5x on the third, on any machine
#: (the scores are calibration-normalized, so the floors travel).
#: Re-measured on the old code rather than read from the old committed
#: baseline because that baseline was recorded on CPython 3.11, whose
#: calibration-loop-to-workload ratio differs enough to skew a
#: cross-interpreter comparison -- the drift ``--check`` now warns on.
ABSOLUTE_FLOORS = {
    # The bitmap free map's >=3x over the per-sector reference map, as a
    # plain floor: the reference scored 86 311 queries/s against a
    # 10 373 185 loop-ops/s calibration (0.00832 normalized) when the
    # schema-4 baseline was recorded on the CI perf interpreter.
    "free_run_query": 3.0 * 0.00832,
    "allocator_throughput": 2.0 * 0.00192,
    "compactor_pass": 2.0 * 0.00034,
    # Was 3.0x before the interior-boundary snap landed: the snap adds
    # gated per-candidate work (a magic-constant nearest-integer check)
    # to the inlined pricing loops, a deliberate fidelity fix applied
    # identically in every rotational_slot path.  Measured on the CI
    # interpreter: 0.0124 pre-snap -> 0.0085-0.0101 across runs with
    # the gated snap (2.6-3.1x), so 2.5x keeps locking in the batch win
    # while sitting below the microbench's run-to-run spread.
    "satf_pick_next": 2.5 * 0.00322,
    # Batched data-movement floors: the pre-batching scalar movement
    # path (per-block allocate + per-block scheduler.write, per-sector
    # CRC recording, full-drive hole pricing), re-measured on the CI
    # perf interpreter (CPython 3.12) under these exact workload shapes,
    # scores vld_write_blocks 0.003287 and compactor_data_move 0.000522;
    # the batched path must hold >=2x on both.
    "vld_write_blocks": 2.0 * 0.003287,
    "compactor_data_move": 2.0 * 0.000522,
}


def _best_of(repeats: int, fn: Callable[[], float]) -> float:
    """Run ``fn`` (which returns ops/sec) ``repeats`` times, keep the best
    -- the standard noise-rejection for microbenchmarks."""
    return max(fn() for _ in range(repeats))


def calibration_ops_per_sec(loops: int = 300_000, repeats: int = 3) -> float:
    """Fixed pure-Python integer workload; the machine-speed yardstick all
    metrics are normalized against."""

    def once() -> float:
        start = time.perf_counter()
        acc = 0
        for i in range(loops):
            acc = (acc + i * i) & 0xFFFFFFFF
        elapsed = time.perf_counter() - start
        assert acc >= 0
        return loops / elapsed

    return _best_of(repeats, once)


def _fragmented_map(utilization: float = 0.75, seed: int = 0xF5EE):
    """A freemap over the paper's simulated Cheetah slice with randomly
    scattered used 8-sector blocks -- the regime eager writing queries
    live in (occupancy is block-granular because the allocator is)."""
    geometry = DiskGeometry(ST19101)
    freemap = FreeSpaceMap(geometry)
    rng = random.Random(seed)
    blocks = geometry.total_sectors // 8
    for block in rng.sample(range(blocks), int(blocks * utilization)):
        freemap.mark_used(block * 8, 8)
    return geometry, freemap


def bench_free_run_query(queries: int = 4000, repeats: int = 5) -> float:
    """ops/sec of ``nearest_free_run`` (count=8, align=8 -- the VLD's
    4 KB-block query) over random tracks and fractional arrival slots."""
    geometry, freemap = _fragmented_map()
    rng = random.Random(0xA110C)
    tracks = [
        (cylinder, head)
        for cylinder in range(geometry.num_cylinders)
        for head in range(geometry.tracks_per_cylinder)
    ]
    plan = [
        (*rng.choice(tracks), rng.random() * geometry.sectors_per_track)
        for _ in range(queries)
    ]

    def once() -> float:
        start = time.perf_counter()
        hits = 0
        for cylinder, head, slot in plan:
            if freemap.nearest_free_run(cylinder, head, slot, 8, align=8):
                hits += 1
        elapsed = time.perf_counter() - start
        assert hits > 0
        return queries / elapsed

    return _best_of(repeats, once)


def bench_mark_roundtrip(rounds: int = 4000, repeats: int = 5) -> float:
    """ops/sec of mark_used+mark_free pairs on 8-sector runs."""
    geometry = DiskGeometry(ST19101)
    freemap = FreeSpaceMap(geometry)
    rng = random.Random(0x3A5C)
    starts = [
        rng.randrange(0, geometry.total_sectors - 8) for _ in range(rounds)
    ]

    def once() -> float:
        start = time.perf_counter()
        for s in starts:
            freemap.mark_used(s, 8)
            freemap.mark_free(s, 8)
        elapsed = time.perf_counter() - start
        return rounds / elapsed

    return _best_of(repeats, once)


def bench_allocator_throughput(cycles: int = 3000, repeats: int = 5) -> float:
    """ops/sec of allocate+free cycles through the TRACK_FILL eager
    allocator at ~70 % standing utilization."""
    disk = Disk(ST19101, store_data=False)
    freemap = FreeSpaceMap(disk.geometry)
    allocator = EagerAllocator(
        disk, freemap, block_sectors=8, policy=AllocationPolicy.TRACK_FILL
    )
    rng = random.Random(0xEA6E)
    standing = int(disk.total_sectors // 8 * 0.70)
    held = [allocator.allocate() for _ in range(standing)]

    def once() -> float:
        start = time.perf_counter()
        for _ in range(cycles):
            block = allocator.allocate()
            held.append(block)
            allocator.free_block(held.pop(rng.randrange(len(held))))
        elapsed = time.perf_counter() - start
        return cycles / elapsed

    return _best_of(repeats, once)


def bench_compactor_pass(repeats: int = 3) -> float:
    """Blocks moved per wall-second compacting a freshly fragmented VLD."""

    def once() -> float:
        disk = Disk(ST19101, num_cylinders=4)
        vld = VirtualLogDisk(disk)
        rng = random.Random(0xC0DE)
        population = rng.sample(range(vld.num_blocks), int(vld.num_blocks * 0.55))
        for lba in population:
            vld.write_blocks(lba, 1)
        # Punch holes: rewrite a third of them so old copies scatter frees.
        for lba in population[:: 3]:
            vld.write_blocks(lba, 1)
        before = vld.compactor.blocks_moved
        start = time.perf_counter()
        vld.idle(0.5)  # half a simulated second of compaction
        elapsed = time.perf_counter() - start
        moved = vld.compactor.blocks_moved - before
        assert moved > 0, "compactor found no work; workload shape broken"
        return moved / elapsed

    return _best_of(repeats, once)


def bench_satf_pick_next(
    depth: int = 16, picks: int = 4000, repeats: int = 5
) -> float:
    """ops/sec of ``SATFPolicy.pick`` over a ``depth``-deep queue of
    random pending requests (prices every candidate with the mechanics
    model -- the scheduler's per-service hot path)."""
    from repro.sched.policies import SATFPolicy
    from repro.sched.scheduler import DiskRequest

    disk = Disk(ST19101, store_data=False)
    rng = random.Random(0x5A7F)
    policy = SATFPolicy()
    queues = []
    for _ in range(64):
        queues.append([
            DiskRequest(
                "write",
                rng.randrange(disk.total_sectors - 8),
                8,
                None,
                False,
                seq,
                0.0,
            )
            for seq in range(depth)
        ])

    def once() -> float:
        start = time.perf_counter()
        for i in range(picks):
            policy.pick(queues[i % len(queues)], disk)
        elapsed = time.perf_counter() - start
        return picks / elapsed

    return _best_of(repeats, once)


def bench_vld_write_blocks(
    rounds: int = 40, run_blocks: int = 16, repeats: int = 5
) -> float:
    """Logical blocks written per wall-second through multi-block
    ``write_blocks`` runs on a standing VLD -- the batched data-movement
    path end to end."""
    disk = Disk(ST19101, num_cylinders=4)
    vld = VirtualLogDisk(disk)
    rng = random.Random(0xB10C)
    span = 192
    payload = bytes(run_blocks * vld.block_size)
    for lba in range(span):
        vld.write_block(lba)
    starts = [rng.randrange(span - run_blocks) for _ in range(rounds)]

    def once() -> float:
        start = time.perf_counter()
        for s in starts:
            vld.write_blocks(s, run_blocks, payload)
        elapsed = time.perf_counter() - start
        return rounds * run_blocks / elapsed

    return _best_of(repeats, once)


def bench_compactor_data_move(repeats: int = 3) -> float:
    """Blocks relocated per wall-second by the compactor's data-movement
    pass, driven directly through ``run_for`` on a fragmented VLD wide
    enough (12 cylinders) that pricing every partial track per move --
    what the outward-walking hole search avoids -- would dominate."""

    def once() -> float:
        disk = Disk(ST19101, num_cylinders=12)
        vld = VirtualLogDisk(disk)
        rng = random.Random(0xDA7A)
        population = rng.sample(
            range(vld.num_blocks), int(vld.num_blocks * 0.55)
        )
        for lba in population:
            vld.write_blocks(lba, 1)
        for lba in population[::3]:
            vld.write_blocks(lba, 1)
        compactor = vld.compactor
        before = compactor.blocks_moved
        start = time.perf_counter()
        compactor.run_for(0.5)
        elapsed = time.perf_counter() - start
        moved = compactor.blocks_moved - before
        assert moved > 0, "compactor found no work; workload shape broken"
        return moved / elapsed

    return _best_of(repeats, once)


def run_suite() -> Dict:
    """Run every metric; returns the BENCH_hotpath.json payload.

    The calibration loop runs again right before each metric and that
    *local* reading is what the metric is normalized by; the payload's
    ``calibration_ops_per_sec`` records the fastest reading (the
    machine's clean speed)."""
    benches = (
        ("free_run_query", bench_free_run_query),
        ("mark_roundtrip", bench_mark_roundtrip),
        ("allocator_throughput", bench_allocator_throughput),
        ("compactor_pass", bench_compactor_pass),
        ("satf_pick_next", bench_satf_pick_next),
        ("vld_write_blocks", bench_vld_write_blocks),
        ("compactor_data_move", bench_compactor_data_move),
    )
    raw: Dict[str, float] = {}
    normalized: Dict[str, float] = {}
    calibrations = []
    for name, bench in benches:
        local = calibration_ops_per_sec()
        calibrations.append(local)
        raw[name] = bench()
        normalized[name] = raw[name] / local
    return {
        "schema": SCHEMA,
        "calibration_ops_per_sec": max(calibrations),
        "raw_ops_per_sec": raw,
        "normalized": normalized,
        "environment": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "machine": platform.machine(),
        },
    }


def run_suite_median(runs: int) -> Dict:
    """Per-metric median over ``runs`` suite passes.

    One pass can mix a lucky reading on one metric with an unlucky one
    on another; a committed baseline built from such a pass makes the
    relative gate flaky in both directions.  Medians keep every metric
    at its typical value (this is how ``BENCH_hotpath.json`` is
    recorded: ``--runs 5``)."""
    if runs <= 1:
        return run_suite()
    results = [run_suite() for _ in range(runs)]
    merged = results[0]
    for section in ("normalized", "raw_ops_per_sec"):
        for key in merged[section]:
            merged[section][key] = statistics.median(
                r[section][key] for r in results
            )
    merged["calibration_ops_per_sec"] = statistics.median(
        r["calibration_ops_per_sec"] for r in results
    )
    return merged


def environment_warnings(result: Dict, baseline: Dict) -> list:
    """Non-fatal drift between the baseline's environment and ours --
    most importantly the interpreter the baseline was recorded on (the
    schema-2 baseline was committed from CPython 3.11.7 while CI ran
    3.10/3.12, and nothing said so)."""
    warnings = []
    base_env = baseline.get("environment", {})
    env = result["environment"]
    for field, label in (
        ("python", "interpreter"),
        ("implementation", "implementation"),
    ):
        recorded = base_env.get(field)
        if recorded is None:
            warnings.append(f"baseline does not record its {label}")
        elif recorded != env[field]:
            warnings.append(
                f"{label} drift: baseline was recorded on {recorded}, "
                f"this run is {env[field]} -- normalized scores absorb "
                "most of the skew, but re-record the baseline from the "
                "CI interpreter if the gap persists"
            )
    return warnings


def compare_to_baseline(
    result: Dict, baseline: Dict, tolerance: float
) -> list:
    """Return a list of human-readable failures (empty == gate passes).

    Only the baseline's ``schema`` and ``normalized`` blocks are read (the
    committed schema-4 file also carries a ``speedup`` block from when
    the reference map was measured here; it is ignored)."""
    failures = []
    if baseline.get("schema") != result["schema"]:
        failures.append(
            f"schema mismatch: baseline {baseline.get('schema')} vs "
            f"current {result['schema']} -- re-record the baseline"
        )
        return failures
    for name, floor in ABSOLUTE_FLOORS.items():
        current = result["normalized"][name]
        if current < floor:
            failures.append(
                f"{name}: normalized {current:.4f} is below the "
                f"absolute floor {floor:.4f} locking in a past speedup"
            )
    for name in GATED_METRICS:
        base = baseline["normalized"].get(name)
        if base is None:
            failures.append(f"baseline missing metric {name!r}")
            continue
        current = result["normalized"][name]
        floor = base * (1.0 - tolerance)
        if current < floor:
            failures.append(
                f"{name}: normalized {current:.3f} is below "
                f"{floor:.3f} (baseline {base:.3f} - {tolerance:.0%})"
            )
    return failures


def _print_report(result: Dict) -> None:
    print(f"calibration: {result['calibration_ops_per_sec']:,.0f} loop-ops/s")
    print(f"{'metric':<24} {'ops/sec':>14} {'normalized':>12}")
    for name in GATED_METRICS:
        print(
            f"{name:<24} {result['raw_ops_per_sec'][name]:>14,.1f} "
            f"{result['normalized'][name]:>12.3f}"
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--json",
        default="BENCH_hotpath.json",
        help="where to write the results payload",
    )
    parser.add_argument(
        "--check",
        metavar="BASELINE",
        help="compare against a committed baseline and exit nonzero on "
        "regression",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.25,
        help="allowed fractional regression per normalized metric",
    )
    parser.add_argument(
        "--runs",
        type=int,
        default=1,
        help="suite passes to take the per-metric median over (use >1 "
        "when recording a committed baseline)",
    )
    args = parser.parse_args(argv)

    result = run_suite_median(args.runs)
    _print_report(result)
    with open(args.json, "w") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.json}")

    if args.check:
        with open(args.check) as fh:
            baseline = json.load(fh)
        for warning in environment_warnings(result, baseline):
            print(f"PERF WARNING: {warning}", file=sys.stderr)
        failures = compare_to_baseline(result, baseline, args.tolerance)
        if failures:
            for failure in failures:
                print(f"PERF REGRESSION: {failure}", file=sys.stderr)
            return 1
        print(
            f"perf gate passed (tolerance {args.tolerance:.0%} vs "
            f"{args.check})"
        )
    return 0


# ----------------------------------------------------------------------
# pytest entry point (collected when running `pytest benchmarks/`)
# ----------------------------------------------------------------------


def test_hotpath_speedup_floor(benchmark):
    """The bitmap free map must hold its normalized ``free_run_query``
    floor (>=3x the per-sector map's recorded score)."""
    from .conftest import run_once

    local = calibration_ops_per_sec()
    fast = run_once(benchmark, lambda: bench_free_run_query(queries=1500))
    print(f"\nfree_run_query: {fast:,.0f} ops/s, normalized {fast / local:.3f}")
    assert fast / local >= ABSOLUTE_FLOORS["free_run_query"]


if __name__ == "__main__":
    sys.exit(main())
