"""Stack configurations: the four file system / disk combinations of
Figure 5, on either drive and either host.

:class:`StackConfig` is the one description of a stack: file system,
core device, platform, request queue, NVM tier, and interposers are all
fields of it, and :func:`build_stack` is the one route from a config to
a running stack (through
:func:`~repro.blockdev.interpose.build_device_stack`).  Nothing here
reads process-wide state: the command-line harness turns its stack flags
into field overrides that the experiments apply with
:func:`dataclasses.replace`, and the resulting config rides whole inside
each sweep point's parameters (:meth:`StackConfig.to_params`), so the
result-cache key covers every flag and any worker process rebuilds the
same stack (:meth:`StackConfig.from_params`).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.blockdev.interface import BlockDevice
from repro.blockdev.interpose import (
    FaultPlan,
    MetricsDevice,
    build_device_stack,
    find_layer,
)
from repro.blockdev.nvm import NVMSpec
from repro.disk.cache import ReadAheadPolicy
from repro.disk.disk import Disk
from repro.disk.specs import DISKS, ST19101, DiskSpec
from repro.fs.api import FileSystem
from repro.hosts.specs import HOSTS, HostSpec


@dataclass(frozen=True)
class StackConfig:
    """One experimental configuration."""

    name: str
    fs_type: str = "ufs"  # "ufs" | "lfs"
    device_type: str = "regular"  # "regular" | "vld"
    disk_name: str = "st19101"
    host_name: str = "sparc10"
    nvram: bool = False
    num_cylinders: int = 0  # 0 = the spec's simulated default
    # Request-queue settings for the core device's internal scheduler.
    # Depth 1 + FIFO is the unscheduled baseline (byte-identical figures).
    queue_depth: int = 1
    sched: str = "fifo"
    # NVM write-ahead tier in front of the core device: False (off),
    # True (default NVDIMM part), a part name from NVM_SPECS, or an
    # NVMSpec pinning one exactly.
    nvm: object = False
    # Interposers.  ``trace`` is False, True (in-memory ring buffer
    # only), or the path of a JSONL sink to append every event to.
    trace: object = False
    metrics: bool = False
    faults: Optional[FaultPlan] = None

    def with_platform(self, disk_name: str, host_name: str) -> "StackConfig":
        return replace(self, disk_name=disk_name, host_name=host_name)

    def to_params(self) -> Dict[str, Any]:
        """The JSON form that rides in a sweep point's parameters (and
        so in its cache key): every field, nested specs as dicts."""
        return asdict(self)

    @classmethod
    def from_params(cls, params: Mapping[str, Any]) -> "StackConfig":
        """Inverse of :meth:`to_params`."""
        fields = dict(params)
        if isinstance(fields.get("nvm"), Mapping):
            fields["nvm"] = NVMSpec(**fields["nvm"])
        if fields.get("faults") is not None:
            fields["faults"] = FaultPlan(**fields["faults"])
        return cls(**fields)


#: The paper's four standard stacks (Figure 5), on the default platform
#: (Seagate disk, SPARCstation-10 host -- Section 5's stated default).
STACKS = {
    "ufs-regular": StackConfig("ufs-regular", "ufs", "regular"),
    "ufs-vld": StackConfig("ufs-vld", "ufs", "vld"),
    "lfs-regular": StackConfig("lfs-regular", "lfs", "regular"),
    "lfs-vld": StackConfig("lfs-vld", "lfs", "vld"),
}

#: Stacks built with metrics enabled, for post-run reporting by the CLI:
#: (config name, MetricsDevice) pairs, appended by :func:`build_stack`.
METRICS_STACKS: List[Tuple[str, MetricsDevice]] = []


def build_stack(config: StackConfig) -> Tuple[FileSystem, Disk, BlockDevice]:
    """Instantiate (file system, disk, device) for a configuration.

    ``device`` is the *outermost* layer of the device stack; with
    interposers enabled that is a wrapper, and
    :func:`~repro.blockdev.interpose.find_layer` fishes out a specific
    layer (e.g. the :class:`MetricsDevice` behind the ``--metrics`` report).
    """
    spec: DiskSpec = DISKS[config.disk_name]
    host: HostSpec = HOSTS[config.host_name]
    if config.device_type == "vld":
        # The paper's VLD read-ahead fix: prefetch whole tracks and retain.
        disk = Disk(
            spec,
            num_cylinders=config.num_cylinders,
            readahead=ReadAheadPolicy.FULL_TRACK,
        )
    elif config.device_type == "regular":
        disk = Disk(spec, num_cylinders=config.num_cylinders)
    else:
        raise ValueError(f"unknown device type {config.device_type!r}")
    device = build_device_stack(
        disk,
        config.device_type,
        trace=config.trace,
        metrics=config.metrics,
        faults=config.faults,
        nvm=config.nvm,
        queue_depth=config.queue_depth,
        sched=config.sched,
    )
    metrics_layer = find_layer(device, MetricsDevice)
    if metrics_layer is not None:
        METRICS_STACKS.append((config.name, metrics_layer))
    # Each file system is imported where it is built, so a stack loads
    # only its own and a device-only caller none (DESIGN.md section 3).
    if config.fs_type == "ufs":
        from repro.ufs.ufs import UFS

        fs: FileSystem = UFS(device, host)
    elif config.fs_type == "lfs":
        from repro.lfs.lfs import LFS

        fs = LFS(device, host, nvram=config.nvram)
    else:
        raise ValueError(f"unknown fs type {config.fs_type!r}")
    return fs, disk, device


def build_sharded_volume(
    shards: int = 3,
    stripe_blocks: int = 8,
    num_cylinders: int = 6,
    queue_depth: int = 1,
    sched: str = "fifo",
    fault_plans: Optional[dict] = None,
):
    """Instantiate a :class:`~repro.volume.ShardedVolume` over ``shards``
    complete VLD stacks, each on its own Seagate ST19101.

    Every shard's disk shares ONE :class:`~repro.sim.clock.SimClock`
    (the volume refuses anything else), so degraded-mode backoff,
    fail-slow surplus, and hedged reads all spend the same simulated
    time (per-disk clocks would let a limping shard fall out of sync
    with its siblings).  ``fault_plans`` maps shard
    index to a :class:`FaultPlan`; those shards get a
    :class:`~repro.blockdev.interpose.FaultDevice` wrapper (the layer
    ``crash()``/fail-slow windows act on).

    Returns ``(volume, devices, disks)`` -- ``devices[i]`` is shard
    ``i``'s outermost layer, ``disks[i]`` its raw disk (the place to
    install a :class:`~repro.blockdev.interpose.FaultPlane`).
    """
    # Imported lazily: repro.volume sits above this module in the layer
    # order, and only volume experiments should pay for it.
    from repro.blockdev.interpose import FaultDevice
    from repro.sim.clock import SimClock
    from repro.vlog.vld import VirtualLogDisk
    from repro.volume import ShardedVolume

    if shards <= 0:
        raise ValueError("shard count must be positive")
    clock = SimClock()
    disks = [
        Disk(ST19101, clock=clock, num_cylinders=num_cylinders)
        for _ in range(shards)
    ]
    devices: List[BlockDevice] = []
    for index, disk in enumerate(disks):
        vld: BlockDevice = VirtualLogDisk(
            disk, queue_depth=queue_depth, sched=sched
        )
        plan = (fault_plans or {}).get(index)
        if plan is not None:
            vld = FaultDevice(vld, plan)
        devices.append(vld)
    volume = ShardedVolume(devices, stripe_blocks=stripe_blocks)
    return volume, devices, disks


def drain_metrics_stacks() -> List[Tuple[str, MetricsDevice]]:
    """Return and clear the registry of metrics-enabled stacks."""
    drained = list(METRICS_STACKS)
    METRICS_STACKS.clear()
    return drained


def utilization_of(fs: FileSystem, device: BlockDevice) -> float:
    """Space utilization as the paper's ``df`` reading would report it."""
    from repro.lfs.lfs import LFS
    from repro.ufs.ufs import UFS
    from repro.vlfs.vlfs import VLFS

    if isinstance(fs, UFS):
        free_frags, _ = fs.alloc.free_space()
        total = (
            fs.layout.sb.num_groups
            * fs.layout.sb.blocks_per_group
            * fs.layout.frags_per_block
        )
        return (total - free_frags) / total
    if isinstance(fs, VLFS):
        # Eager writing keeps no segment usage: space is the free map's.
        return fs.utilization
    if isinstance(fs, LFS):
        # Count NVRAM-resident dirty data as used space too -- it is live
        # file content that simply has not reached the log yet.
        live = sum(fs.segusage.live_bytes)
        buffered = fs.cache.dirty_blocks * fs.block_size
        total = fs.layout.sb.num_segments * fs.layout.segment_bytes
        return min(1.0, (live + buffered) / total)
    raise TypeError(f"unknown file system {type(fs)!r}")
