"""Command-line experiment runner: ``python -m repro.harness [names...]``.

Regenerates the requested tables/figures (default: all of them) and
prints the paper-style rows; ``--full`` uses paper-scale workloads.  The
two scales, the renderer and the flags of each experiment are its record
in :mod:`repro.harness.registry`.  A flag aimed at an experiment whose
record does not read it is a usage error, not a no-op.  So is a mode
flag (``--list``, ``--scrub``, ``--volume-demo``, ``--torture``) given
with experiment names, an experiment flag or another mode flag: a mode
runs instead of the experiments (every torture plan builds its own
stack and workload), so ``--torture`` takes only its own flags, the
sweep flags and ``--full``, and the other modes, which run no sweep and
have one scale, take none.

Stack flags are folded into :class:`~repro.harness.configs.StackConfig`
field overrides, handed over as the ``stack=`` keyword; the overridden
config rides inside every sweep point, so these flags run parallel and
cached like any other parameter: ``--queue-depth N`` lets each core
device keep ``N`` requests outstanding in its internal scheduler and
``--sched POLICY`` picks the service order (``fifo``, ``scan``,
``satf``; depth 1 + FIFO is the unscheduled baseline); ``--nvm [PART]``
threads an NVM write-ahead tier in front of every stack
(``--nvm-lat``/``--nvm-cap`` adjust the part); ``--faults SPEC`` injects
deterministic device faults (``SPEC`` like
``crash_after=40,torn=0.05,seed=7``; an injected crash aborts the run
with exit status 3).

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
import sys
import time
from typing import Any, Dict

from repro.harness import sweep
from repro.harness.cache import ResultCache
from repro.harness.registry import EXPERIMENTS
from repro.harness.report import format_table


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

    _check_mode_runs_alone(parser, args)
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")
    if args.volume and not args.torture:
        parser.error("--volume requires --torture")
    if args.families is not None and not args.torture:
        parser.error("--families requires --torture")
    if args.list:
        print("\n".join(EXPERIMENTS))
        return 0
    if args.scrub:
        return _run_scrub_demo()
    if args.volume_demo:
        return _run_volume_demo()
    if args.shard_slow is not None and args.shards is None:
        parser.error("--shard-slow requires --shards")
    if args.disks is not None and args.shards is not None:
        parser.error("--disks does not apply with --shards "
                     "(--shards M runs M shards in place of the disks)")
    if (args.nvm_lat is not None or args.nvm_cap is not None) \
            and args.nvm is None:
        parser.error("--nvm-lat/--nvm-cap require --nvm")
    given = _given_flags(parser, args)
    stack = _stack_overrides(given)
    # The simulator loads once a run needs it: --help and --list load
    # none of it (DESIGN.md section 3).
    from repro.blockdev.interpose import DeviceCrashed

    if args.torture:
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
    cache = None if args.no_cache else ResultCache(args.cache)
    names = args.names or list(EXPERIMENTS)
    for name in names:
        if name not in EXPERIMENTS:
            print(f"unknown experiment {name!r}; try --list",
                  file=sys.stderr)
            return 2
        for flag in given:
            if flag not in EXPERIMENTS[name].flags:
                readers = [e.name for e in EXPERIMENTS.values() if flag in e.flags]
                parser.error(f"{flag} does not apply to {name}; it applies "
                             f"to {', '.join(readers)}")
    results: Dict[str, Any] = {}
    with sweep.configured(jobs=args.jobs, cache=cache):
        for name in names:
            experiment = EXPERIMENTS[name]
            kwargs = experiment.kwargs(args.full)
            for flag, value in given.items():
                keyword = experiment.flags[flag]
                kwargs[keyword] = stack if keyword == "stack" else value
            start = time.time()
            try:
                results[name] = experiment.run(kwargs, results)
            except DeviceCrashed as crash:
                print(f"[{name} aborted: injected device crash: {crash}]\n",
                      file=sys.stderr)
                _close_observers(args)
                return 3
            experiment.render(results[name])
            print(f"[{name} regenerated in "
                  f"{time.time() - start:.1f}s wall]\n")
            _report_sweep_stats(args, name)
            _close_observers(args)
    return 0


def _check_mode_runs_alone(parser, args) -> None:
    """A mode flag runs alone: experiment names, an experiment flag or a
    second mode flag beside it would do nothing, and so would ``--full``
    or a sweep flag beside any mode but ``--torture``."""
    modes = [flag for flag in ("--list", "--scrub", "--volume-demo", "--torture")
             if getattr(args, _dest(flag))]
    if not modes:
        return
    mode = modes[0]
    if len(modes) > 1:
        parser.error(f"{modes[1]} does not apply to {mode} (a mode flag runs alone)")
    if args.names:
        parser.error(f"{mode} takes no experiment names, got {' '.join(args.names)}")
    reason = (" (every torture plan builds its own stack and workload)"
              if mode == "--torture" else "")
    for flag in dict.fromkeys(f for e in EXPERIMENTS.values() for f in e.flags):
        value = getattr(args, _dest(flag))
        if value is not None and value is not False:
            parser.error(f"{flag} does not apply to {mode}{reason}")
    if mode == "--torture":
        return
    if args.full:
        parser.error(f"--full does not apply to {mode} (it has one scale)")
    for flag in ("--jobs", "--cache", "--no-cache", "--cache-stats"):
        if getattr(args, _dest(flag)) != parser.get_default(_dest(flag)):
            parser.error(f"{flag} does not apply to {mode} (it runs no sweep)")


def _dest(flag: str) -> str:
    """The ``args`` attribute argparse stores ``flag`` under."""
    return flag[2:].replace("-", "_")


def _given_flags(parser, args) -> Dict[str, Any]:
    """The experiment flags on the command line, each with the value it
    gives its keyword (an experiment that reads it as part of ``stack``
    gets the folded :func:`_stack_overrides` instead)."""
    from repro.blockdev.interpose import FaultPlan
    from repro.blockdev.nvm import NVM_SPECS

    for flag, value in (("--queue-depth", args.queue_depth), ("--hosts", args.hosts),
                        ("--disks", args.disks), ("--shards", args.shards)):
        if value is not None and value < 1:
            parser.error(f"{flag} must be >= 1")
    if args.nvm is not None:
        if args.nvm not in NVM_SPECS:
            parser.error(f"--nvm: unknown part {args.nvm!r}; known: "
                         + ", ".join(sorted(NVM_SPECS)))
        _check_nvm_overrides(parser, NVM_SPECS[args.nvm], args)
    if args.trace:
        try:
            with open(args.trace, "a"):
                pass
        except OSError as exc:
            parser.error(f"--trace: cannot append to {args.trace}: {exc.strerror}")
    try:
        faults = FaultPlan.parse(args.faults) if args.faults else None
    except ValueError as exc:
        parser.error(f"--faults: {exc}")
    try:
        shard_slow = (None if args.shard_slow is None
                      else _parse_shard_slow(args.shard_slow, args.shards))
    except ValueError as exc:
        parser.error(f"--shard-slow: {exc}")
    given = {
        "--queue-depth": args.queue_depth, "--sched": args.sched,
        "--nvm": args.nvm, "--nvm-lat": args.nvm_lat, "--nvm-cap": args.nvm_cap,
        "--faults": faults, "--trace": args.trace or None,
        "--metrics": args.metrics or None,
        "--hosts": None if args.hosts is None else [args.hosts],
        "--disks": args.disks, "--shards": args.shards,
        "--shard-slow": shard_slow,
    }
    return {flag: value for flag, value in given.items() if value is not None}


def _check_nvm_overrides(parser, spec, args) -> None:
    """Refuse a ``--nvm-lat`` the part would refuse, and a ``--nvm-cap``
    the write-ahead tier would."""
    try:
        spec = spec.with_overrides(store_latency=args.nvm_lat)
    except ValueError as exc:
        parser.error(f"--nvm-lat: {exc}")
    if args.nvm_cap is None:
        return
    from repro.blockdev.regular import RegularDisk
    from repro.disk.disk import Disk
    from repro.disk.specs import ST19101
    from repro.nvm.wal import NVWal

    try:
        # The tier's constructor owns the floor of one block record.
        NVWal(RegularDisk(Disk(ST19101, num_cylinders=1)),
              spec.with_overrides(capacity_bytes=args.nvm_cap))
    except ValueError as exc:
        parser.error(f"--nvm-cap: {exc}")


def _stack_overrides(given: Dict[str, Any]) -> Dict[str, Any]:
    """Fold the stack flags given into StackConfig field overrides."""
    from repro.blockdev.nvm import NVM_SPECS

    stack = {
        field: given[flag]
        for flag, field in (("--queue-depth", "queue_depth"), ("--sched", "sched"),
                            ("--faults", "faults"), ("--trace", "trace"),
                            ("--metrics", "metrics"))
        if flag in given
    }
    if "--nvm" in given:
        stack["nvm"] = NVM_SPECS[given["--nvm"]].with_overrides(
            store_latency=given.get("--nvm-lat"), capacity_bytes=given.get("--nvm-cap")
        )
    return stack


def _parse_shard_slow(spec: str, shards: int) -> dict:
    """Parse ``shard=1,factor=8,after=20,ops=60`` into the multihost
    ``shard_slow`` dict (``after``/``ops`` optional), refusing a shard
    outside ``--shards`` and a window the fault plane would refuse."""
    from repro.blockdev.interpose import FaultPlane

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
    if not 0 <= out["shard"] < shards:
        raise ValueError(f"shard {out['shard']} out of range for --shards {shards}")
    FaultPlane(slow_factor=out["factor"], slow_after_ops=out.get("after", 0),
               slow_duration_ops=out.get("ops"))
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
    from repro.blockdev.interpose import FaultPlane
    from repro.disk.disk import Disk
    from repro.disk.specs import ST19101
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


def _close_observers(args) -> None:
    """Close the trace files, and print and clear the metrics, of every
    stack built so far."""
    from repro.harness import configs

    configs.close_trace_files()
    stacks = configs.drain_metrics_stacks()
    if not args.metrics:
        return
    for stack_name, metrics in stacks:
        print(f"  [metrics {stack_name}] {metrics.summary()}")
    if stacks:
        print()


if __name__ == "__main__":
    sys.exit(main())
