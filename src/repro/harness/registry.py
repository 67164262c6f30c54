"""The experiment registry: one record per table, figure, ablation and
extension the CLI regenerates.

A record names the experiment function in :mod:`repro.harness.experiments`,
its two scales (``quick``, the default, and ``full``, paper scale), the
renderer that prints its result, and the CLI flags it reads, each mapped
to the keyword it sets.  ``python -m repro.harness`` and the shape
benchmarks under ``benchmarks/`` both run experiments through these
records, so a scale or a table layout is stated once.

The records name their functions, and :mod:`repro.harness.experiments`
(which imports the whole simulator) loads on the first run, so listing
the records loads no experiment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

from repro.harness.report import format_table
from repro.sim.stats import COMPONENTS


@dataclass(frozen=True)
class Experiment:
    """One experiment.  ``flags`` maps each CLI flag it reads to the
    keyword the flag sets (``"stack"``: folded into the
    :class:`~repro.harness.configs.StackConfig` overrides).  ``reshapes``
    is ``(source, reshape)`` when the result is ``reshape`` of
    ``source``'s, ``reshape`` naming a function of the experiments
    module: if ``source`` already ran in the same invocation, no point
    runs."""

    name: str
    render: Callable[[Any], None]
    quick: Mapping[str, Any] = field(default_factory=dict)
    full: Mapping[str, Any] = field(default_factory=dict)
    flags: Mapping[str, str] = field(default_factory=dict)
    reshapes: Optional[Tuple[str, str]] = None

    @property
    def fn(self) -> Callable[..., Any]:
        """The experiment function, looked up on each access (so a
        patched module attribute is the one that runs)."""
        return _experiment(self.name)

    def kwargs(self, full: bool) -> Dict[str, Any]:
        """The keyword arguments of the chosen scale."""
        return dict(self.full if full else self.quick)

    def run(self, kwargs: Mapping[str, Any], earlier: Mapping[str, Any]) -> Any:
        """The result at ``kwargs``; ``earlier`` maps the experiments
        already run in this invocation to their results."""
        if self.reshapes is not None and self.reshapes[0] in earlier:
            source, reshape = self.reshapes
            return _experiment(reshape)(earlier[source])
        return self.fn(**kwargs)


def _experiment(name: str) -> Callable[..., Any]:
    from repro.harness import experiments

    return getattr(experiments, name)


def _render_table1(result) -> None:
    rows = [[param, result["HP97560"][param], result["ST19101"][param]]
            for param in result["HP97560"]]
    print(format_table(["parameter", "HP97560", "ST19101"], rows, title="Table 1"))


def _render_model_vs_simulation(x_key: str, title: str, result) -> None:
    """One model-vs-simulation table per disk (Figures 1 and 2)."""
    for disk, series in result.items():
        rows = [[x, m * 1e3, s * 1e3] for x, m, s in zip(
            series[x_key], series["model_seconds"], series["simulated_seconds"])]
        print(format_table([x_key, "model (ms)", "simulated (ms)"], rows,
                           title=title.format(disk)))
        print()


def _render_figure6(result) -> None:
    rows = [[stack, p["create"], p["read"], p["delete"]]
            for stack, p in result["normalized"].items()]
    print(format_table(["stack", "create", "read", "delete"], rows,
                       title="Figure 6 (normalized to ufs-regular)"))


def _render_figure7(result) -> None:
    phases = sorted({p for d in result.values() for p in d})
    rows = [[stack] + [bw.get(p, float("nan")) for p in phases]
            for stack, bw in result.items()]
    print(format_table(["stack", *phases], rows, title="Figure 7 (MB/s)"))


def _render_latency(x_key: str, x_header: str, title: str, result) -> None:
    """One latency table per curve (Figures 8, 10 and 11)."""
    for curve, series in result.items():
        rows = list(zip(series[x_key], series["latency_ms"]))
        print(format_table([x_header, "latency (ms)"], rows, title=title.format(curve)))
        print()


def _render_table2(result) -> None:
    rows = [[platform, e["update_in_place_ms"], e["virtual_log_ms"], e["speedup"]]
            for platform, e in result.items()]
    print(format_table(["platform", "in-place (ms)", "vlog (ms)", "speedup"], rows,
                       title="Table 2"))


def _render_figure9(result) -> None:
    rows = [[key, *(f"{e[c] * 100:.0f}%" for c in COMPONENTS), e["total_ms"]]
            for key, e in result.items()]
    print(format_table(["platform/system", *COMPONENTS, "total (ms)"], rows,
                       title="Figure 9"))


def _render_qdepth(result) -> None:
    for workload, per_policy in result.items():
        depths = next(iter(per_policy.values()))["queue_depth"]
        rows = [[int(d)] + [per_policy[p]["mean_service_ms"][i] for p in per_policy]
                for i, d in enumerate(depths)]
        print(format_table(["depth", *(f"{p} (ms)" for p in per_policy)], rows,
                           title=f"figure_qdepth: {workload} (mean service)"))
        print()


def _render_multihost(result) -> None:
    columns = ("requests_per_second", "mean_response_ms", "p99_response_ms",
               "p999_response_ms", "hidden_think_seconds")
    for workload, series in result.items():
        rows = [[int(hosts), *(series[c][i] for c in columns)]
                for i, hosts in enumerate(series["hosts"])]
        print(format_table(["hosts", "req/s", "mean resp (ms)", "p99 (ms)", "p999 (ms)",
                            "hidden think (s)"], rows, title=f"figure_multihost: {workload}"))
        for hosts, per in zip(series["hosts"], series.get("per_shard", [])):
            tag = f"  [{int(hosts)} host(s)]"
            for row in per["shards"]:
                line = (f"{tag} {row['shard']}: {row['requests']} reqs, response "
                        f"p50={row['p50_response_ms']:.3f} p99={row['p99_response_ms']:.3f} "
                        f"p999={row['p999_response_ms']:.3f}ms")
                if row["ops_slowed"]:
                    line += f", slowed={row['ops_slowed']} (+{row['slow_extra_seconds']:.4f}s)"
                print(line)
            window = per.get("degraded_window")
            if window is not None:
                print(f"{tag} degraded window: {window['seconds']:.4f}s, "
                      f"{window['completed']} completed "
                      f"({window['requests_per_second']:.0f} req/s)")
        print()


def _render_nvm(result) -> None:
    for workload, per_mode in result.items():
        rows = [[mode, m["mean_write_ms"], m["p99_write_ms"], m["max_write_ms"],
                 int(m.get("destaged_blocks", 0)), int(m.get("pressure_destages", 0))]
                for mode, m in per_mode.items()]
        print(format_table(["mode", "mean write (ms)", "p99 (ms)", "max (ms)", "destaged",
                            "pressure"], rows, title=f"figure_nvm: {workload}"))
        print()


def _render_column(headers, label: str, title: str, result) -> None:
    """One ``label``-formatted key and its value per row (the allocator,
    map-record and track-buffer ablations)."""
    rows = [[label.format(key), value] for key, value in result.items()]
    print(format_table(headers, rows, title=title))


def _render_cleaner(result) -> None:
    rows = [[policy, e["latency_ms"], e["segments_cleaned"], e["blocks_copied"]]
            for policy, e in result.items()]
    print(format_table(["policy", "latency (ms/4KB)", "segs cleaned", "blocks copied"],
                       rows, title="Ablation: LFS cleaner policy (random sync updates, "
                                   "17 MB file, NVRAM)"))


def _render_fill_threshold(result) -> None:
    """The measured latency beside Section 2.3's model of the locate
    time at the same threshold."""
    from repro.disk.specs import ST19101
    from repro.models.compactor import average_latency_closed_form

    n = ST19101.sectors_per_track
    rows = []
    for threshold, latency in result.items():
        m = int(round((1 - threshold) * n))
        model = average_latency_closed_form(
            n, m, ST19101.head_switch_time, ST19101.sector_time
        )
        rows.append([f"{threshold:.0%}", latency, model * 1e3])
    print(format_table(["fill threshold", "measured (ms/4KB)", "model locate (ms)"], rows,
                       title="Ablation: VLD track-fill threshold (paper uses 75%)"))


def _render_future_trends(result) -> None:
    rows = [[disk, in_place, vlog, f"{speedup:.1f}x"]
            for disk, (in_place, vlog, speedup) in result.items()]
    print(format_table(["disk", "in-place (ms)", "virtual log (ms)", "speedup"], rows,
                       title="Extension: Table 2 extrapolated to a projected 2004 "
                             "drive (UltraSPARC host)"))


def _render_reorganizer(result) -> None:
    rows = [[state, bw] for state, bw in result.items() if not state.startswith("_")]
    print(format_table(["layout state", "seq read (MB/s)"], rows,
                       title="Extension: read-locality reorganization on a VLD "
                             f"({result['_windows']} windows rewritten)"))


def _render_vlfs_deduction(result) -> None:
    rows = [[stack, sync_ms, async_ms] for stack, (sync_ms, async_ms) in result.items()]
    print(format_table(["stack", "sync write (ms)", "async write (ms)"], rows,
                       title="VLFS deduction (Section 5.1): random 4 KB updates, 8 MB file"))


#: The stack flags: each is folded into the ``stack=`` overrides of an
#: experiment that builds its stacks through ``build_stack``.
_STACK = dict.fromkeys(
    ("--queue-depth", "--sched", "--nvm", "--nvm-lat", "--nvm-cap",
     "--faults", "--trace", "--metrics"),
    "stack",
)

#: Table 2's scales, which Figure 9 shares: it reshapes the same runs.
_TABLE2_QUICK = dict(updates=150, warmup=50)

#: Every experiment, in the order ``--list`` prints and a bare
#: ``python -m repro.harness`` runs them.
EXPERIMENTS: Dict[str, Experiment] = {e.name: e for e in (
    Experiment("table1", _render_table1),
    Experiment("figure1", partial(_render_model_vs_simulation, "free_fraction", "figure1 ({})"),
               quick=dict(trials=150), full=dict(trials=500)),
    Experiment("figure2", partial(_render_model_vs_simulation, "threshold", "figure2 ({})"),
               quick=dict(trials=20), full=dict(trials=80)),
    Experiment("figure6", _render_figure6, quick=dict(num_files=400),
               full=dict(num_files=1500), flags=_STACK),
    Experiment("figure7", _render_figure7, quick=dict(file_mb=4), full=dict(file_mb=10),
               flags=_STACK),
    Experiment("figure8", partial(_render_latency, "utilization", "utilization", "Figure 8: {}"),
               quick=dict(file_mbs=[2, 6, 10, 14, 17], updates=150, warmup=50,
                          lfs_updates=2500, lfs_warmup=1500),
               flags=_STACK),
    Experiment("table2", _render_table2, quick=_TABLE2_QUICK, flags=_STACK),
    Experiment("figure9", _render_figure9, quick=_TABLE2_QUICK, flags=_STACK,
               reshapes=("table2", "breakdown")),
    Experiment("figure10", partial(_render_latency, "idle_seconds", "idle (s)",
                                   "figure10: burst {}"),
               quick=dict(burst_kbs=[128, 504, 2016], idle_seconds=[0.0, 0.25, 1.0, 4.0],
                          bursts=4),
               flags=_STACK),
    Experiment("figure11", partial(_render_latency, "idle_seconds", "idle (s)",
                                   "figure11: burst {}"),
               quick=dict(burst_kbs=[128, 512, 2048], idle_seconds=[0.0, 0.1, 0.3, 0.6],
                          bursts=4),
               flags=_STACK),
    Experiment("figure_qdepth", _render_qdepth, quick=dict(depths=[1, 2, 4], requests=150)),
    Experiment("figure_multihost", _render_multihost,
               quick=dict(host_counts=[1, 2, 4], requests_per_host=80),
               flags={"--hosts": "host_counts", "--disks": "disks",
                      "--shards": "shards", "--shard-slow": "shard_slow"}),
    Experiment("figure_nvm", _render_nvm, quick=dict(requests=80),
               flags={"--nvm": "nvm_part", "--nvm-lat": "nvm_store_latency",
                      "--nvm-cap": "nvm_capacity"}),
    Experiment("ablation_allocator",
               partial(_render_column, ["policy", "latency (ms/4KB)"], "{}",
                       "Ablation: eager allocation policy (UFS on VLD, "
                       "random sync updates @ ~55% utilization)"),
               quick=dict(updates=120, warmup=40)),
    Experiment("ablation_cleaner", _render_cleaner, quick=dict(updates=2500)),
    Experiment("ablation_compactor", _render_fill_threshold,
               quick=dict(updates=100, warmup=33)),
    Experiment("ablation_mapsector",
               partial(_render_column, ["map record size", "latency (ms/4KB)"], "{} B",
                       "Ablation: virtual-log map record size "
                       "(UFS on VLD @ ~73% utilization)"),
               quick=dict(updates=120, warmup=40)),
    Experiment("ablation_trackbuffer",
               partial(_render_column, ["read-ahead policy", "seq read (MB/s)"], "{}",
                       "Ablation: track-buffer policy under a VLD "
                       "(sequential read of an eagerly-written file)"),
               quick=dict(file_mb=3)),
    Experiment("future_trends", _render_future_trends, quick=dict(updates=120, warmup=40)),
    Experiment("reorganizer", _render_reorganizer, quick=dict(file_mb=4)),
    Experiment("vlfs_deduction", _render_vlfs_deduction, quick=dict(updates=150)),
)}
