"""Virtual Log Based File Systems for a Programmable Disk -- reproduction.

A full Python implementation of Wang, Anderson & Patterson's OSDI '99
system: eager writing, the virtual log, the Virtual Log Disk (VLD), the
analytical latency models, and the evaluation substrate (a rotational disk
simulator, an FFS-style UFS, a log-structured file system) plus the VLFS
design the paper describes but did not build.

Quick start::

    from repro import Disk, ST19101, VirtualLogDisk

    vld = VirtualLogDisk(Disk(ST19101))
    vld.write_block(7, b"hello" + bytes(4091))   # eager, synchronous
    vld.power_down()                             # firmware saves the tail
    vld.crash()
    vld.recover()                                # map rebuilt from the log
    data, latency = vld.read_block(7)

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every table and figure.
"""

from repro.blockdev import (
    BlockDevice,
    DeviceCrashed,
    DeviceFault,
    FaultDevice,
    FaultPlan,
    FaultPlane,
    InjectedReadError,
    InterposedDevice,
    MetricsDevice,
    RegularDisk,
    TracingDevice,
    build_device_stack,
)
from repro.disk import (
    Disk,
    DiskGeometry,
    DiskMechanics,
    DiskSpec,
    FreeSpaceMap,
    HP97560,
    ReadAheadPolicy,
    ST19101,
    TrackBuffer,
)
from repro.fs import FileStat, FileSystem
from repro.hosts import HOSTS, HostSpec, SPARCSTATION_10, ULTRASPARC_170
from repro.lfs import LFS
from repro.sim import Breakdown, LatencyRecorder, SimClock
from repro.ufs import UFS
from repro.vlfs import VLFS
from repro.vlog import (
    AllocationPolicy,
    EagerAllocator,
    FreeSpaceCompactor,
    IndirectionMap,
    VirtualLog,
    VirtualLogDisk,
)

__version__ = "1.0.0"

__all__ = [
    "Breakdown",
    "LatencyRecorder",
    "SimClock",
    "Disk",
    "DiskSpec",
    "DiskGeometry",
    "DiskMechanics",
    "FreeSpaceMap",
    "TrackBuffer",
    "ReadAheadPolicy",
    "HP97560",
    "ST19101",
    "HostSpec",
    "HOSTS",
    "SPARCSTATION_10",
    "ULTRASPARC_170",
    "BlockDevice",
    "RegularDisk",
    "InterposedDevice",
    "TracingDevice",
    "MetricsDevice",
    "FaultDevice",
    "FaultPlan",
    "FaultPlane",
    "DeviceFault",
    "DeviceCrashed",
    "InjectedReadError",
    "build_device_stack",
    "VirtualLog",
    "VirtualLogDisk",
    "IndirectionMap",
    "EagerAllocator",
    "AllocationPolicy",
    "FreeSpaceCompactor",
    "FileSystem",
    "FileStat",
    "UFS",
    "LFS",
    "VLFS",
    "__version__",
]
