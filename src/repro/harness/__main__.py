"""Command-line experiment runner: ``python -m repro.harness [names...]``.

Regenerates the requested tables/figures (default: all of them) and
prints the paper-style rows; ``--full`` uses paper-scale workloads.  The
two scales, the renderer and the flags of each experiment are its record
in :mod:`repro.harness.registry`.

One rule governs the flags: each run declares the flags it reads, and a
flag typed beside a run that does not read it, or without the flag it
requires (:data:`_REQUIRES`), is a usage error, not a no-op.  An
experiment reads ``--full``, the sweep flags and its record's ``flags``.
A mode flag (``--list``, ``--scrub``, ``--volume-demo``, ``--torture``)
runs instead of the experiments, alone, and reads what :data:`MODES`
declares: ``--torture`` reads ``--full``, the sweep flags, ``--volume``
and ``--families`` (every torture plan builds its own stack and
workload); the other three read nothing.

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
from typing import Any, Dict, List, Tuple

from repro.harness import sweep
from repro.harness.cache import ResultCache
from repro.harness.registry import EXPERIMENTS
from repro.harness.report import format_table

#: The sweep flags: every experiment and ``--torture`` read them.
_SWEEP = ("--jobs", "--cache", "--no-cache", "--cache-stats")

#: Each mode flag: the flags it reads beside itself, and the name of the
#: function that runs it (looked up on each run, so a patched module
#: attribute is the one that runs).  A mode that reads no flag is called
#: with none; ``--torture`` gets the typed flags.
MODES = {
    "--list": ((), "_list"),
    "--scrub": ((), "_run_scrub_demo"),
    "--volume-demo": ((), "_run_volume_demo"),
    "--torture": (("--full", *_SWEEP, "--volume", "--families"), "_run_torture"),
}

#: Each flag that needs another one typed beside it.
_REQUIRES = {"--volume": "--torture", "--families": "--torture",
             "--shard-slow": "--shards", "--nvm-lat": "--nvm", "--nvm-cap": "--nvm"}


def main(argv=None) -> int:
    parser = _parser()
    # Intermixed: experiment names may sit on both sides of a flag
    # (``table1 --no-cache table2``); an optional value still takes the
    # next word (``--nvm figure10`` names a part).
    typed = vars(parser.parse_intermixed_args(argv))
    names = typed.pop("names", [])
    given = {"--" + dest.replace("_", "-"): value for dest, value in typed.items()}
    unknown = [name for name in names if name not in EXPERIMENTS]
    if unknown and not given.keys() & MODES:  # beside a mode, _refuse names them
        print(f"unknown experiment {unknown[0]!r}; try --list", file=sys.stderr)
        return 2
    runs = _refuse(parser, given, names)
    runner = globals()[MODES[runs[0]][1]] if runs[0] in MODES else None
    if runner is not None and not _reads(runs[0]):
        # A mode that reads no flag takes none, and runs before the
        # simulator loads (--list loads none of it).
        return runner()
    stack = _values(parser, given)
    from repro.blockdev.interpose import DeviceCrashed

    jobs, no_cache = given.get("--jobs", 1), "--no-cache" in given
    if "--trace" in given or "--metrics" in given:
        # A trace file and the metrics registry are observations of a
        # run, not parameters of its result: a cache hit or a worker
        # process produces nothing to observe.
        if jobs > 1:
            print("[sweep: --trace/--metrics force --jobs 1]", file=sys.stderr)
            jobs = 1
        if not no_cache:
            print("[sweep: --trace/--metrics disable the result cache]", file=sys.stderr)
            no_cache = True
    cache = None if no_cache else ResultCache(given.get("--cache", ".sweep-cache"))
    results: Dict[str, Any] = {}
    with sweep.configured(jobs=jobs, cache=cache):
        if runner is not None:
            status = runner(given)
            _report_sweep_stats(given, "torture")
            return status
        for name in runs:
            experiment = EXPERIMENTS[name]
            kwargs = experiment.kwargs("--full" in given)
            for flag, keyword in experiment.flags.items():
                if flag in given:
                    kwargs[keyword] = stack if keyword == "stack" else given[flag]
            start = time.time()
            try:
                results[name] = experiment.run(kwargs, results)
            except DeviceCrashed as crash:
                print(f"[{name} aborted: injected device crash: {crash}]\n",
                      file=sys.stderr)
                _close_observers(given)
                return 3
            experiment.render(results[name])
            print(f"[{name} regenerated in "
                  f"{time.time() - start:.1f}s wall]\n")
            _report_sweep_stats(given, name)
            _close_observers(given)
    return 0


def _parser() -> argparse.ArgumentParser:
    """The flags.  No flag has a default, so ``vars()`` of the parse holds
    exactly the flags typed: given means typed."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness",
        description="Regenerate the paper's tables and figures.",
        argument_default=argparse.SUPPRESS,
    )
    parser.add_argument("names", nargs="*",
                        help="experiments to run (default: all)")
    parser.add_argument("--full", action="store_true",
                        help="paper-scale workloads (slower)")
    parser.add_argument("--list", action="store_true",
                        help="list available experiments")
    parser.add_argument("--trace", metavar="PATH",
                        help="append a JSONL record per device op to PATH")
    parser.add_argument("--metrics", action="store_true",
                        help="print per-stack device metrics summaries")
    parser.add_argument("--faults", metavar="SPEC",
                        help="inject device faults, e.g. "
                             "'crash_after=40,torn=0.05,seed=7'")
    parser.add_argument("--jobs", type=int, metavar="N",
                        help="worker processes per experiment sweep "
                             "(default: 1, inline)")
    parser.add_argument("--cache", metavar="DIR",
                        help="content-addressed result cache directory "
                             "(default: .sweep-cache)")
    parser.add_argument("--no-cache", action="store_true",
                        help="recompute every point, bypassing the cache")
    parser.add_argument("--cache-stats", action="store_true",
                        help="print sweep cache/executor statistics after "
                             "each experiment")
    parser.add_argument("--hosts", type=int, metavar="N",
                        help="run figure_multihost with exactly N "
                             "closed-loop host processes")
    parser.add_argument("--disks", type=int, metavar="M",
                        help="stripe figure_multihost requests across M "
                             "independent device stacks (default: 1)")
    parser.add_argument("--shards", type=int, metavar="M",
                        help="run figure_multihost in sharded-volume mode "
                             "across M fault domains (per-shard tails)")
    parser.add_argument("--shard-slow", metavar="SPEC",
                        help="make one shard fail-slow, e.g. "
                             "'shard=1,factor=8,after=20,ops=60' "
                             "(requires --shards)")
    parser.add_argument("--queue-depth", type=int, metavar="N",
                        help="request-queue depth for every device stack "
                             "(default: 1, the unscheduled baseline)")
    parser.add_argument("--sched", metavar="POLICY",
                        choices=("fifo", "scan", "satf"),
                        help="request scheduling policy: fifo, scan, satf "
                             "(default: fifo)")
    parser.add_argument("--nvm", nargs="?", const="nvdimm", metavar="PART",
                        help="thread an NVM write-ahead tier into every "
                             "device stack (PART: nvdimm, battery-sram, "
                             "slow-pcm; default nvdimm)")
    parser.add_argument("--nvm-lat", type=float, metavar="SECONDS",
                        help="override the NVM store latency (requires "
                             "--nvm), e.g. 3e-6")
    parser.add_argument("--nvm-cap", type=int, metavar="BYTES",
                        help="override the NVM log capacity in bytes "
                             "(requires --nvm), e.g. 1048576")
    parser.add_argument("--torture", action="store_true",
                        help="run the composed-fault torture matrix "
                             "(with --full: the weekly multi-seed grid)")
    parser.add_argument("--families", nargs="+", metavar="FAMILY",
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
    return parser


def _refuse(parser, given: Dict[str, Any], names: List[str]) -> List[str]:
    """The runs selected (the mode typed, else the experiments named, else
    every one), refusing in command-line order a second mode, names beside
    a mode, a flag without the one it requires, a flag a selected run does
    not read, and ``--disks`` beside ``--shards``."""
    modes = [flag for flag in given if flag in MODES]
    if len(modes) > 1:
        _does_not_apply(parser, modes[1], modes[0])
    if modes and names:
        parser.error(f"{modes[0]} takes no experiment names, got {' '.join(names)}")
    for flag in given:
        if _REQUIRES.get(flag, flag) not in given:
            parser.error(f"{flag} requires {_REQUIRES[flag]}")
    runs = modes or names or list(EXPERIMENTS)
    for flag in given:
        for run in runs:
            if flag != run and flag not in _reads(run):
                _does_not_apply(parser, flag, run)
    if "--disks" in given and "--shards" in given:
        parser.error("--disks does not apply with --shards "
                     "(--shards M runs M shards in place of the disks)")
    return runs


def _reads(run: str) -> Tuple[str, ...]:
    """The flags ``run`` (a mode flag or a record's name) reads."""
    if run in MODES:
        return MODES[run][0]
    return ("--full", *_SWEEP, *EXPERIMENTS[run].flags)


def _does_not_apply(parser, flag: str, run: str) -> None:
    """Refuse ``flag`` beside ``run``, naming the runs that read it."""
    experiments = [name for name in EXPERIMENTS if flag in _reads(name)]
    readers = ["every experiment"] if experiments == list(EXPERIMENTS) else experiments
    readers += [mode for mode in MODES if flag in _reads(mode)]
    where = f"; it applies to {', '.join(readers)}" if readers else " (a mode flag runs alone)"
    parser.error(f"{flag} does not apply to {run}{where}")


def _values(parser, given: Dict[str, Any]) -> Dict[str, Any]:
    """Refuse a value no run can take, turn the others into the values
    their keywords take, and return the stack flags folded into
    StackConfig field overrides."""
    from repro.blockdev.interpose import FaultPlan

    for flag in ("--jobs", "--queue-depth", "--hosts", "--disks", "--shards"):
        if given.get(flag, 1) < 1:
            parser.error(f"{flag} must be >= 1")
    if "--trace" in given:
        try:
            with open(given["--trace"], "a"):
                pass
        except OSError as exc:
            parser.error(f"--trace: cannot append to {given['--trace']}: {exc.strerror}")
    try:
        if "--faults" in given:
            given["--faults"] = FaultPlan.parse(given["--faults"])
    except ValueError as exc:
        parser.error(f"--faults: {exc}")
    try:
        if "--shard-slow" in given:
            given["--shard-slow"] = _parse_shard_slow(given["--shard-slow"], given["--shards"])
    except ValueError as exc:
        parser.error(f"--shard-slow: {exc}")
    if "--hosts" in given:
        given["--hosts"] = [given["--hosts"]]
    stack = {
        field: given[flag]
        for flag, field in (("--queue-depth", "queue_depth"), ("--sched", "sched"),
                            ("--faults", "faults"), ("--trace", "trace"),
                            ("--metrics", "metrics"))
        if flag in given
    }
    if "--nvm" in given:
        stack["nvm"] = _nvm_spec(parser, given)
    return stack


def _nvm_spec(parser, given: Dict[str, Any]):
    """The ``--nvm`` part with ``--nvm-lat`` and ``--nvm-cap`` applied,
    refusing an unknown part, a latency the part would refuse and a
    capacity the write-ahead tier would."""
    from repro.blockdev.nvm import NVM_SPECS

    if given["--nvm"] not in NVM_SPECS:
        parser.error(f"--nvm: unknown part {given['--nvm']!r}; known: "
                     + ", ".join(sorted(NVM_SPECS)))
    try:
        spec = NVM_SPECS[given["--nvm"]].with_overrides(store_latency=given.get("--nvm-lat"))
    except ValueError as exc:
        parser.error(f"--nvm-lat: {exc}")
    if "--nvm-cap" not in given:
        return spec
    from repro.blockdev.regular import RegularDisk
    from repro.disk.disk import Disk
    from repro.disk.specs import ST19101
    from repro.nvm.wal import NVWal

    try:
        spec = spec.with_overrides(capacity_bytes=given["--nvm-cap"])
        # The tier's constructor owns the floor of one block record.
        NVWal(RegularDisk(Disk(ST19101, num_cylinders=1)), spec)
    except ValueError as exc:
        parser.error(f"--nvm-cap: {exc}")
    return spec


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


def _list() -> int:
    """Print every record's name, in the order a bare run runs them."""
    print("\n".join(EXPERIMENTS))
    return 0


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


def _run_torture(given: Dict[str, Any]) -> int:
    """The composed-fault matrix (``--volume``: the multi-shard one);
    exit 1 (plus a minimized repro artifact) if any plan fails, 2 for a
    family the selected table does not have."""
    from repro.harness import torture

    volume, full, selected = "--volume" in given, "--full" in given, given.get("--families")
    title, before, after, cells, proved = _TORTURE_TABLES[volume]
    if volume:
        fn, families = torture.volume_torture_point, torture.VOLUME_FAMILIES
        grid = torture.volume_long_set if full else torture.volume_quick_set
    else:
        fn, families = torture.torture_point, torture.FAMILIES
        grid = torture.long_set if full else torture.quick_set
    unknown = [f for f in selected or () if f not in families]
    if unknown:
        print(f"unknown torture families: {', '.join(unknown)}; "
              f"known: {', '.join(sorted(families))}",
              file=sys.stderr)
        return 2
    points = grid(selected)
    print(f"{title.lower()}: {len(points)} plans "
          f"({'weekly' if full else 'quick'} set, "
          f"jobs={given.get('--jobs', 1)})")
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


def _report_sweep_stats(given: Dict[str, Any], name: str) -> None:
    stats = sweep.reset_stats()
    if "--cache-stats" in given and stats.points:
        print(f"  [sweep {name}] {stats.summary()}\n")


def _close_observers(given: Dict[str, Any]) -> None:
    """Close the trace files, and print and clear the metrics, of every
    stack built so far."""
    from repro.harness import configs

    configs.close_trace_files()
    stacks = configs.drain_metrics_stacks()
    if "--metrics" not in given:
        return
    for stack_name, metrics in stacks:
        print(f"  [metrics {stack_name}] {metrics.summary()}")
    if stacks:
        print()


if __name__ == "__main__":
    sys.exit(main())
