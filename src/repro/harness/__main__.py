"""Command-line experiment runner: ``python -m repro.harness [names...]``.

Regenerates the requested tables/figures (default: the quick set) and
prints the paper-style rows.  ``--full`` uses paper-scale workloads.

Stack flags describe the device stacks the experiments build.  Each one
is folded into a :class:`~repro.harness.configs.StackConfig` field
override and handed, as the ``stack=`` keyword, to the experiments that
build stacks through ``build_stack`` (figure6/7/8, table2/figure9,
figure10/11); the overridden config rides inside every sweep point, so
these flags run parallel and cached like any other parameter:
``--queue-depth N`` lets each core device keep ``N`` requests
outstanding in its internal scheduler and ``--sched POLICY`` picks the
service order (``fifo``, ``scan``, ``satf``; depth 1 + FIFO is the
unscheduled baseline); ``--nvm [PART]`` threads an NVM write-ahead tier
in front of every stack (``--nvm-lat``/``--nvm-cap`` adjust the part);
``--faults SPEC`` injects deterministic device faults (``SPEC`` like
``crash_after=40,torn=0.05,seed=7``; an injected crash aborts the run
with exit status 3).  A stack flag given to an experiment that takes no
stack overrides, or with ``--torture`` (every torture plan builds its
own stack), is an error rather than a silent no-op.

Two stack flags are observations of a run, not parameters of its result:
``--trace PATH`` appends one JSONL record per device operation and
``--metrics`` prints a per-stack op/latency summary after each
experiment.  A cache hit or a worker process produces nothing to
observe, so these two (and only these) run inline and uncached.

Sweep flags control how each experiment's grid of independent points is
executed: ``--jobs N`` fans the points out across ``N`` worker
processes, ``--cache DIR`` (default ``.sweep-cache``) memoizes each
point's result under a content-addressed key so re-running an unchanged
figure is near-instant (any source edit invalidates transparently),
``--no-cache`` disables the cache, and ``--cache-stats`` prints
hit/miss/submission counts after each experiment.

Multi-host flags apply to ``figure_multihost`` (the event-engine
scale-out sweep): ``--hosts N`` runs exactly ``N`` closed-loop host
processes instead of the default host-count curve, and ``--disks M``
stripes their requests across ``M`` independent device stacks.
``--shards M`` runs the grid in sharded-volume mode instead -- the M
stacks are fault domains, and every row carries per-shard response
tails; ``--shard-slow SPEC`` (``shard=1,factor=8,after=20,ops=60``)
makes one shard fail-slow for a window of requests so the report also
measures degraded-window throughput.

Resilience flags: ``--torture`` runs the composed-fault torture matrix
(crash/torn/flaky/read-error plans over every workload; ``--full``
widens it to the weekly multi-seed grid) instead of the experiments,
minimizing and writing a ``torture-repro/`` artifact for any failing
plan; with ``--volume`` the matrix is the multi-shard one instead
(shard crash / fail-slow / flaky-media fault domains composed over a
sharded volume, checked by the volume-level fsck and the differential
oracle); ``--families`` restricts whichever matrix is selected to the
named fault families (an unknown name is a usage error, exit 2);
``--scrub`` prints a short flaky-media story showing retries,
quarantine, and the idle-time scrubber migrating live data;
``--volume-demo`` prints a degraded-mode tour of the sharded volume
(one shard crashes, healthy I/O keeps flowing, bounded retries, hedged
reads against a limping shard, per-shard recovery).

Examples::

    python -m repro.harness table1 figure1
    python -m repro.harness --full --jobs 4 figure8
    python -m repro.harness --jobs 2 --cache-stats
    python -m repro.harness --metrics table2
    python -m repro.harness --trace /tmp/ops.jsonl figure6
    python -m repro.harness --faults crash_after=500 figure6
    python -m repro.harness --jobs 2 --queue-depth 4 --sched satf table2
    python -m repro.harness --jobs 2 --nvm nvdimm table2
    python -m repro.harness --torture --jobs 2
    python -m repro.harness --scrub
    python -m repro.harness --list
"""

from __future__ import annotations

import argparse
import inspect
import sys
import time
from typing import Any, Dict

from repro.blockdev.interpose import DeviceCrashed, FaultPlan
from repro.blockdev.nvm import NVM_SPECS
from repro.harness import configs, experiments, sweep
from repro.harness.cache import ResultCache
from repro.harness.report import format_table
from repro.sim.stats import COMPONENTS

_QUICK = {
    "figure1": dict(trials=150),
    "figure2": dict(trials=20),
    "figure6": dict(num_files=400),
    "figure7": dict(file_mb=4),
    "figure8": dict(
        file_mbs=[2, 6, 10, 14, 17], updates=150, warmup=50,
        lfs_updates=2500, lfs_warmup=1500,
    ),
    "table2": dict(updates=150, warmup=50),
    "figure10": dict(
        burst_kbs=[128, 504, 2016], idle_seconds=[0.0, 0.25, 1.0, 4.0],
        bursts=4,
    ),
    "figure11": dict(
        burst_kbs=[128, 512, 2048], idle_seconds=[0.0, 0.1, 0.3, 0.6],
        bursts=4,
    ),
    "figure_qdepth": dict(depths=[1, 2, 4], requests=150),
    "figure_multihost": dict(host_counts=[1, 2, 4], requests_per_host=80),
    "figure_nvm": dict(requests=80),
}

_FULL = {
    "figure1": dict(trials=500),
    "figure2": dict(trials=80),
    "figure6": dict(num_files=1500),
    "figure7": dict(file_mb=10),
    "figure8": dict(),
    "table2": dict(),
    "figure10": dict(),
    "figure11": dict(),
    "figure_qdepth": dict(),
    "figure_multihost": dict(),
    "figure_nvm": dict(),
}

# Figure 9 reshapes Table 2's runs, so at either scale it asks for Table
# 2's points (and finds them in the cache when Table 2 ran first).
for _scale in (_QUICK, _FULL):
    _scale["figure9"] = _scale["table2"]

_ALL = ["table1", "figure1", "figure2", "figure6", "figure7", "figure8",
        "table2", "figure9", "figure10", "figure11", "figure_qdepth",
        "figure_multihost", "figure_nvm"]


def _print_result(name: str, result) -> None:
    if name == "table1":
        rows = [
            [param, result["HP97560"][param], result["ST19101"][param]]
            for param in result["HP97560"]
        ]
        print(format_table(["parameter", "HP97560", "ST19101"], rows,
                           title="Table 1"))
    elif name in ("figure1", "figure2"):
        x_key = "free_fraction" if name == "figure1" else "threshold"
        for disk, series in result.items():
            rows = [
                [x, m * 1e3, s * 1e3]
                for x, m, s in zip(
                    series[x_key],
                    series["model_seconds"],
                    series["simulated_seconds"],
                )
            ]
            print(format_table(
                [x_key, "model (ms)", "simulated (ms)"], rows,
                title=f"{name} ({disk})",
            ))
            print()
    elif name == "figure6":
        rows = [
            [stack, p["create"], p["read"], p["delete"]]
            for stack, p in result["normalized"].items()
        ]
        print(format_table(
            ["stack", "create", "read", "delete"], rows,
            title="Figure 6 (normalized to ufs-regular)",
        ))
    elif name == "figure7":
        phases = sorted({p for d in result.values() for p in d})
        rows = [
            [stack] + [bw.get(p, float("nan")) for p in phases]
            for stack, bw in result.items()
        ]
        print(format_table(["stack", *phases], rows,
                           title="Figure 7 (MB/s)"))
    elif name == "figure8":
        for system, series in result.items():
            rows = list(zip(series["utilization"], series["latency_ms"]))
            print(format_table(
                ["utilization", "latency (ms)"], rows,
                title=f"Figure 8: {system}",
            ))
            print()
    elif name == "table2":
        rows = [
            [platform, e["update_in_place_ms"], e["virtual_log_ms"],
             e["speedup"]]
            for platform, e in result.items()
        ]
        print(format_table(
            ["platform", "in-place (ms)", "vlog (ms)", "speedup"], rows,
            title="Table 2",
        ))
    elif name == "figure9":
        rows = [
            [key, *(f"{e[c] * 100:.0f}%" for c in COMPONENTS),
             e["total_ms"]]
            for key, e in result.items()
        ]
        print(format_table(
            ["platform/system", *COMPONENTS, "total (ms)"], rows,
            title="Figure 9",
        ))
    elif name in ("figure10", "figure11"):
        for burst, series in result.items():
            rows = list(zip(series["idle_seconds"], series["latency_ms"]))
            print(format_table(
                ["idle (s)", "latency (ms)"], rows,
                title=f"{name}: burst {burst}",
            ))
            print()
    elif name == "figure_qdepth":
        for workload, per_policy in result.items():
            depths = next(iter(per_policy.values()))["queue_depth"]
            rows = [
                [int(d)] + [
                    per_policy[p]["mean_service_ms"][i] for p in per_policy
                ]
                for i, d in enumerate(depths)
            ]
            print(format_table(
                ["depth", *(f"{p} (ms)" for p in per_policy)], rows,
                title=f"figure_qdepth: {workload} (mean service)",
            ))
            print()
    elif name == "figure_multihost":
        for workload, series in result.items():
            rows = [
                [
                    int(series["hosts"][i]),
                    series["requests_per_second"][i],
                    series["mean_response_ms"][i],
                    series["p99_response_ms"][i],
                    series["p999_response_ms"][i],
                    series["hidden_think_seconds"][i],
                ]
                for i in range(len(series["hosts"]))
            ]
            print(format_table(
                ["hosts", "req/s", "mean resp (ms)", "p99 (ms)",
                 "p999 (ms)", "hidden think (s)"],
                rows, title=f"figure_multihost: {workload}",
            ))
            for i, per in enumerate(series.get("per_shard", [])):
                hosts_n = int(series["hosts"][i])
                for row in per["shards"]:
                    line = (
                        f"  [{hosts_n} host(s)] {row['shard']}: "
                        f"{row['requests']} reqs, response "
                        f"p50={row['p50_response_ms']:.3f} "
                        f"p99={row['p99_response_ms']:.3f} "
                        f"p999={row['p999_response_ms']:.3f}ms"
                    )
                    if row["ops_slowed"]:
                        line += (
                            f", slowed={row['ops_slowed']} "
                            f"(+{row['slow_extra_seconds']:.4f}s)"
                        )
                    print(line)
                window = per.get("degraded_window")
                if window is not None:
                    print(
                        f"  [{hosts_n} host(s)] degraded window: "
                        f"{window['seconds']:.4f}s, "
                        f"{window['completed']} completed "
                        f"({window['requests_per_second']:.0f} req/s)"
                    )
            print()
    elif name == "figure_nvm":
        for workload, per_mode in result.items():
            rows = [
                [
                    mode,
                    m["mean_write_ms"],
                    m["p99_write_ms"],
                    m["max_write_ms"],
                    int(m.get("destaged_blocks", 0)),
                    int(m.get("pressure_destages", 0)),
                ]
                for mode, m in per_mode.items()
            ]
            print(format_table(
                ["mode", "mean write (ms)", "p99 (ms)", "max (ms)",
                 "destaged", "pressure"],
                rows, title=f"figure_nvm: {workload}",
            ))
            print()
    else:  # pragma: no cover - defensive
        print(result)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument("names", nargs="*", default=[],
                        help="experiments to run (default: all)")
    parser.add_argument("--full", action="store_true",
                        help="paper-scale workloads (slower)")
    parser.add_argument("--list", action="store_true",
                        help="list available experiments")
    parser.add_argument("--trace", metavar="PATH", default=None,
                        help="append a JSONL record per device op to PATH")
    parser.add_argument("--metrics", action="store_true",
                        help="print per-stack device metrics summaries")
    parser.add_argument("--faults", metavar="SPEC", default=None,
                        help="inject device faults, e.g. "
                             "'crash_after=40,torn=0.05,seed=7'")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes per experiment sweep "
                             "(default: 1, inline)")
    parser.add_argument("--cache", metavar="DIR", default=".sweep-cache",
                        help="content-addressed result cache directory "
                             "(default: .sweep-cache)")
    parser.add_argument("--no-cache", action="store_true",
                        help="recompute every point, bypassing the cache")
    parser.add_argument("--cache-stats", action="store_true",
                        help="print sweep cache/executor statistics after "
                             "each experiment")
    parser.add_argument("--hosts", type=int, default=None, metavar="N",
                        help="run figure_multihost with exactly N "
                             "closed-loop host processes")
    parser.add_argument("--disks", type=int, default=None, metavar="M",
                        help="stripe figure_multihost requests across M "
                             "independent device stacks (default: 1)")
    parser.add_argument("--shards", type=int, default=None, metavar="M",
                        help="run figure_multihost in sharded-volume mode "
                             "across M fault domains (per-shard tails)")
    parser.add_argument("--shard-slow", metavar="SPEC", default=None,
                        help="make one shard fail-slow, e.g. "
                             "'shard=1,factor=8,after=20,ops=60' "
                             "(requires --shards)")
    parser.add_argument("--queue-depth", type=int, default=None, metavar="N",
                        help="request-queue depth for every device stack "
                             "(default: 1, the unscheduled baseline)")
    parser.add_argument("--sched", default=None, metavar="POLICY",
                        choices=("fifo", "scan", "elevator", "satf"),
                        help="request scheduling policy: fifo, scan, satf "
                             "(default: fifo)")
    parser.add_argument("--nvm", nargs="?", const="nvdimm", default=None,
                        metavar="PART",
                        help="thread an NVM write-ahead tier into every "
                             "device stack (PART: nvdimm, battery-sram, "
                             "slow-pcm; default nvdimm)")
    parser.add_argument("--nvm-lat", type=float, default=None,
                        metavar="SECONDS",
                        help="override the NVM store latency (requires "
                             "--nvm), e.g. 3e-6")
    parser.add_argument("--nvm-cap", type=int, default=None,
                        metavar="BYTES",
                        help="override the NVM log capacity in bytes "
                             "(requires --nvm), e.g. 1048576")
    parser.add_argument("--torture", action="store_true",
                        help="run the composed-fault torture matrix "
                             "(with --full: the weekly multi-seed grid)")
    parser.add_argument("--families", nargs="+", default=None,
                        metavar="FAMILY",
                        help="with --torture: restrict the matrix to these "
                             "fault families (e.g. nvm-crash "
                             "nvm-crash+torn@depth4; with --volume, e.g. "
                             "shard-crash shard-composed)")
    parser.add_argument("--volume", action="store_true",
                        help="with --torture: run the multi-shard volume "
                             "matrix (shard crash/slow/flaky fault domains)")
    parser.add_argument("--scrub", action="store_true",
                        help="print a flaky-media scrubbing demo")
    parser.add_argument("--volume-demo", action="store_true",
                        help="print a sharded-volume degraded-mode demo")
    args = parser.parse_args(argv)

    if args.list:
        print("\n".join(_ALL))
        return 0
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")
    if args.scrub:
        return _run_scrub_demo()
    if args.volume_demo:
        return _run_volume_demo()
    if args.volume and not args.torture:
        parser.error("--volume requires --torture")
    if args.shards is not None and args.shards < 1:
        parser.error("--shards must be >= 1")
    if args.shard_slow is not None and args.shards is None:
        parser.error("--shard-slow requires --shards")
    if (args.nvm_lat is not None or args.nvm_cap is not None) \
            and args.nvm is None:
        parser.error("--nvm-lat/--nvm-cap require --nvm")
    if args.families is not None and not args.torture:
        parser.error("--families requires --torture")
    stack = _stack_overrides(parser, args)
    if args.torture:
        if stack:
            parser.error(
                f"{_STACK_FLAGS[next(iter(stack))]} does not apply to --torture "
                "(every torture plan builds its own stack)"
            )
        cache = None if args.no_cache else ResultCache(args.cache)
        with sweep.configured(jobs=args.jobs, cache=cache):
            status = _run_torture(args)
        _report_sweep_stats(args, "torture")
        return status
    if args.trace or args.metrics:
        # A trace file and the metrics registry are observations of a
        # run, not parameters of its result: a cache hit or a worker
        # process produces nothing to observe.
        if args.jobs > 1:
            print("[sweep: --trace/--metrics force --jobs 1]",
                  file=sys.stderr)
            args.jobs = 1
        if not args.no_cache:
            print("[sweep: --trace/--metrics disable the result cache]",
                  file=sys.stderr)
            args.no_cache = True
    if args.hosts is not None and args.hosts < 1:
        parser.error("--hosts must be >= 1")
    if args.disks is not None and args.disks < 1:
        parser.error("--disks must be >= 1")
    cache = None if args.no_cache else ResultCache(args.cache)
    names = args.names or _ALL
    for name in names:
        if name not in _ALL:
            print(f"unknown experiment {name!r}; try --list",
                  file=sys.stderr)
            return 2
        for field in stack:
            # figure_nvm reads --nvm (and its lat/cap) as its own part.
            if not (_takes_stack(name)
                    or (name == "figure_nvm" and field == "nvm")):
                parser.error(
                    f"{_STACK_FLAGS[field]} does not apply to {name}, "
                    "which builds no stack through build_stack; name the "
                    "experiments it should apply to"
                )
    overrides = _FULL if args.full else _QUICK
    with sweep.configured(jobs=args.jobs, cache=cache):
        for name in names:
            fn = getattr(experiments, name)
            kwargs = dict(overrides.get(name, {}))
            if stack and _takes_stack(name):
                kwargs["stack"] = stack
            if name == "figure_nvm":
                if args.nvm is not None:
                    kwargs["nvm_part"] = args.nvm
                if args.nvm_lat is not None:
                    kwargs["nvm_store_latency"] = args.nvm_lat
                if args.nvm_cap is not None:
                    kwargs["nvm_capacity"] = args.nvm_cap
            if name == "figure_multihost":
                if args.hosts is not None:
                    kwargs["host_counts"] = [args.hosts]
                if args.disks is not None:
                    kwargs["disks"] = args.disks
                if args.shards is not None:
                    kwargs["shards"] = args.shards
                    if args.shard_slow is not None:
                        try:
                            kwargs["shard_slow"] = _parse_shard_slow(
                                args.shard_slow
                            )
                        except ValueError as exc:
                            parser.error(f"--shard-slow: {exc}")
            start = time.time()
            try:
                result = fn(**kwargs)
            except DeviceCrashed as crash:
                print(f"[{name} aborted: injected device crash: {crash}]\n",
                      file=sys.stderr)
                _report_metrics(args)
                return 3
            _print_result(name, result)
            print(f"[{name} regenerated in "
                  f"{time.time() - start:.1f}s wall]\n")
            _report_sweep_stats(args, name)
            _report_metrics(args)
    return 0


#: The command-line flag that sets each StackConfig field override.
_STACK_FLAGS = {
    "queue_depth": "--queue-depth",
    "sched": "--sched",
    "nvm": "--nvm",
    "faults": "--faults",
    "trace": "--trace",
    "metrics": "--metrics",
}


def _stack_overrides(parser, args) -> Dict[str, Any]:
    """Fold the stack flags into StackConfig field overrides (only the
    flags actually given appear)."""
    stack: Dict[str, Any] = {}
    if args.queue_depth is not None:
        if args.queue_depth < 1:
            parser.error("--queue-depth must be >= 1")
        stack["queue_depth"] = args.queue_depth
    if args.sched is not None:
        stack["sched"] = args.sched
    if args.nvm is not None:
        if args.nvm not in NVM_SPECS:
            parser.error(f"--nvm: unknown part {args.nvm!r}; known: "
                         + ", ".join(sorted(NVM_SPECS)))
        stack["nvm"] = NVM_SPECS[args.nvm].with_overrides(
            store_latency=args.nvm_lat, capacity_bytes=args.nvm_cap
        )
    if args.faults:
        try:
            stack["faults"] = FaultPlan.parse(args.faults)
        except ValueError as exc:
            parser.error(f"--faults: {exc}")
    if args.trace:
        stack["trace"] = args.trace
    if args.metrics:
        stack["metrics"] = True
    return stack


def _takes_stack(name: str) -> bool:
    """Whether an experiment builds its stacks through ``build_stack``
    and so accepts StackConfig overrides."""
    return "stack" in inspect.signature(getattr(experiments, name)).parameters


def _parse_shard_slow(spec: str) -> dict:
    """Parse ``shard=1,factor=8,after=20,ops=60`` into the multihost
    ``shard_slow`` dict (``after``/``ops`` optional)."""
    known = {"shard": int, "factor": float, "after": int, "ops": int}
    out: dict = {}
    for item in spec.split(","):
        item = item.strip()
        if not item:
            continue
        key, _, value = item.partition("=")
        key = key.strip()
        if key not in known:
            raise ValueError(
                f"unknown key {key!r}; known: " + ", ".join(known)
            )
        out[key] = known[key](value.strip())
    for required in ("shard", "factor"):
        if required not in out:
            raise ValueError(f"missing required key {required!r}")
    return out


def _torture_cells(verdict) -> list:
    """The single-device table's own columns: faults, then counters."""
    params, counters = verdict["params"], verdict["counters"]
    fault = ",".join(
        f"{k}={params[k]}" for k in
        ("crash_after", "torn", "flaky", "read_error_rate",
         "nvm_crash_after", "nvm_torn")
        if params.get(k)
    ) or "none"
    return [[fault], [counters["retries"], counters["quarantined"],
                      counters["sectors_scrubbed"]]]


def _volume_torture_cells(verdict) -> list:
    """The volume table's own columns: shards and faults, then the
    degraded window and the quarantine count."""
    params, degraded = verdict["params"], verdict["degraded_window"]
    faults = []
    if params.get("crash_after"):
        faults.append(f"crash@{params.get('crash_shard')}")
    if params.get("slow_factor", 1.0) != 1.0:
        faults.append(
            f"slow@{params.get('slow_shard')}"
            f"x{params.get('slow_factor'):g}"
        )
    if params.get("flaky"):
        faults.append(f"flaky@{params.get('flaky_shard')}")
    window = (
        f"{degraded.get('healthy_ok', 0)}ok/"
        f"{degraded.get('unavailable', 0)}unavail"
        if degraded else "-"
    )
    return [[params["shards"], ",".join(faults) or "none"],
            [window, verdict["recovery"]["quarantined_sectors"]]]


#: What differs between the two torture tables, keyed by ``--volume``:
#: the title, the column names either side of the shared ``seed | verdict
#: | crash op`` with the function filling them, and what a clean run is
#: said to prove.
_TORTURE_TABLES = {
    False: ("Torture matrix", ["faults"],
            ["retries", "quarantined", "scrubbed"], _torture_cells,
            "recovery clean, vlfsck silent"),
    True: ("Volume torture matrix", ["shards", "faults"],
           ["degraded", "quarantined"], _volume_torture_cells,
           "fault domains held, volume-fsck clean"),
}


def _run_torture(args) -> int:
    """The composed-fault matrix (``--volume``: the multi-shard one);
    exit 1 (plus a minimized repro artifact) if any plan fails, 2 for a
    family the selected table does not have."""
    from repro.harness import torture

    title, before, after, cells, proved = _TORTURE_TABLES[args.volume]
    if args.volume:
        fn, families = torture.volume_torture_point, torture.VOLUME_FAMILIES
        grid = torture.volume_long_set if args.full else torture.volume_quick_set
    else:
        fn, families = torture.torture_point, torture.FAMILIES
        grid = torture.long_set if args.full else torture.quick_set
    unknown = [f for f in args.families or () if f not in families]
    if unknown:
        print(f"unknown torture families: {', '.join(unknown)}; "
              f"known: {', '.join(sorted(families))}",
              file=sys.stderr)
        return 2
    points = grid(args.families)
    print(f"{title.lower()}: {len(points)} plans "
          f"({'weekly' if args.full else 'quick'} set, "
          f"jobs={args.jobs})")
    verdicts = torture.run_matrix(points)
    rows = []
    failing = None
    for verdict in verdicts:
        head, tail = cells(verdict)
        rows.append([
            verdict["params"]["workload"], *head, verdict["seed"],
            "ok" if verdict["ok"] else "FAIL",
            verdict["crashed_at"] if verdict["crashed_at"] is not None
            else "-",
            *tail,
        ])
        if failing is None and not verdict["ok"]:
            failing = verdict
    print(format_table(
        ["workload", *before, "seed", "verdict", "crash op", *after],
        rows, title=title,
    ))
    if failing is None:
        print(f"\nall {len(verdicts)} plans survived: {proved}, "
              f"oracle satisfied")
        return 0
    print(f"\nminimizing failing plan {failing['params']} "
          f"seed={failing['seed']} ...", file=sys.stderr)
    minimized = torture.minimize(failing["params"], failing["seed"], fn=fn)
    path = torture.write_repro(failing, minimized)
    print(f"failure minimized to {minimized['params']} "
          f"({minimized['runs']} runs); repro written to {path}",
          file=sys.stderr)
    for line in failing["failures"][:10]:
        print(f"  {line}", file=sys.stderr)
    return 1


def _run_scrub_demo() -> int:
    """A watchable tour of the resilience layer: flaky sectors under
    live data, retries, quarantine, and idle-time migration."""
    from repro.disk.disk import Disk
    from repro.disk.specs import ST19101
    from repro.blockdev.interpose import FaultPlane
    from repro.vlog.vld import VirtualLogDisk

    disk = Disk(ST19101, num_cylinders=4)
    vld = VirtualLogDisk(disk)
    for lba in range(32):
        vld.write_block(lba, bytes([lba % 251]) * vld.block_size)
    from repro.vlog.resilience import MediaError

    victim = vld.imap.get(5)
    sector = victim * vld.sectors_per_block
    FaultPlane(flaky_sectors={sector: 0.75}, seed=42).install(disk)
    print(f"32 blocks written; lba 5 lives on physical block {victim}; "
          f"sector {sector} now fails ~75% of read attempts")

    def read5() -> bytes:
        while True:  # the host's own retry loop, as a file system would
            try:
                return vld.read_block(5)[0]
            except MediaError:
                continue

    expected = bytes([5]) * vld.block_size
    intact = read5() == expected
    res = vld.resilience
    print(f"read lba 5: {res.retries} drive retries, "
          f"{res.media_errors} escalated to the host, data "
          f"{'intact' if intact else 'LOST'}; "
          f"suspects queued: {len(res.suspects)}")
    vld.idle(0.5)
    moved = vld.imap.get(5)
    print(f"idle 0.5s: scrubber migrated "
          f"{res.scrubber.blocks_migrated} block(s); lba 5 now on "
          f"physical block {moved}; quarantined sectors: "
          f"{sorted(res.quarantine.sectors)}")
    before = res.retries
    reread = read5() == expected
    print(f"re-read lba 5: {res.retries - before} new retries (the "
          f"flaky sector is quarantined and vacated), data "
          f"{'intact' if reread else 'LOST'}")
    return 0 if intact and reread else 1


def _run_volume_demo() -> int:
    """A watchable tour of the sharded volume's partial-failure story:
    one shard crashes, healthy shards keep serving, down-shard requests
    fail fast after a bounded backoff, a limping shard draws hedged
    reads, and recovery is per-shard."""
    from repro.blockdev.interpose import FaultPlan
    from repro.harness.configs import build_sharded_volume
    from repro.volume import ShardUnavailable, volume_fsck

    volume, _devices, disks = build_sharded_volume(
        shards=3,
        fault_plans={2: FaultPlan(seed=7, slow_factor=8.0,
                                  slow_after_ops=120,
                                  slow_duration_ops=260)},
    )

    def payload(lba: int) -> bytes:
        return bytes([lba % 251]) * volume.block_size

    total = 48
    for lba in range(total):
        volume.write_block(lba, payload(lba))
    print(f"{volume.num_shards}-shard volume, stripe "
          f"{volume.stripe_blocks} blocks: {total} blocks written "
          f"(stripes round-robin across shards)")

    volume.crash_shard(0)
    clock = disks[0].clock
    before = clock.now
    served = failed = 0
    for lba in range(total):
        try:
            data, _ = volume.read_block(lba)
            assert data == payload(lba)
            served += 1
        except ShardUnavailable as fault:
            assert fault.shard == 0
            failed += 1
    print(f"shard 0 crashed; reading all {total} blocks: {served} served "
          f"by healthy shards, {failed} failed fast with ShardUnavailable "
          f"after {clock.now - before:.4f}s of bounded retry backoff")

    limping = [
        lba for lba in range(total) if volume.shard_of(lba)[0] == 2
    ]
    for _ in range(30):
        for lba in limping:
            volume.read_block(lba)
    monitor = volume.monitors[2]
    print(f"shard 2 limps through an 8x fail-slow window: health monitor "
          f"tripped={monitor.tripped} (baseline p99 "
          f"{(monitor.baseline_p99 or 0) * 1e3:.3f}ms, rolling p99 "
          f"{(monitor.rolling_p99() or 0) * 1e3:.3f}ms); "
          f"{volume.hedged_reads[2]} reads hedged")

    outcome = volume.recover_shard(0)
    report = volume_fsck(volume, deep=True)
    intact = sum(
        1 for lba in range(total)
        if volume.read_block(lba)[0] == payload(lba)
    )
    print(f"shard 0 recovered independently "
          f"(power record: {outcome.used_power_down_record}, scanned: "
          f"{outcome.scanned}); {report.summary()}; "
          f"{intact}/{total} blocks intact")
    return 0 if (report.ok and intact == total) else 1


def _report_sweep_stats(args, name: str) -> None:
    stats = sweep.reset_stats()
    if args.cache_stats and stats.points:
        print(f"  [sweep {name}] {stats.summary()}\n")


def _report_metrics(args) -> None:
    """Print and clear the metrics of every stack built so far."""
    stacks = configs.drain_metrics_stacks()
    if not args.metrics:
        return
    for stack_name, metrics in stacks:
        print(f"  [metrics {stack_name}] {metrics.summary()}")
    if stacks:
        print()


if __name__ == "__main__":
    sys.exit(main())
