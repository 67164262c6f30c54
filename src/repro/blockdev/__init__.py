"""Logical block devices: the interface file systems program against.

Both the plain update-in-place disk and the Virtual Log Disk export this
same interface, which is how the paper runs an *unmodified* UFS on either
(Section 4: "Because both the regular disk and the VLD export the standard
device driver interface...").
"""

from repro.blockdev.interface import BlockDevice
from repro.blockdev.interpose import (
    DeviceCrashed,
    DeviceFault,
    FaultDevice,
    FaultPlan,
    FaultPlane,
    InjectedReadError,
    InterposedDevice,
    MetricsDevice,
    TraceEvent,
    TracingDevice,
    build_device_stack,
    core_device,
    find_layer,
    layers,
)
from repro.blockdev.regular import RegularDisk

__all__ = [
    "BlockDevice",
    "RegularDisk",
    "InterposedDevice",
    "TracingDevice",
    "TraceEvent",
    "MetricsDevice",
    "FaultDevice",
    "FaultPlan",
    "FaultPlane",
    "DeviceFault",
    "DeviceCrashed",
    "InjectedReadError",
    "build_device_stack",
    "core_device",
    "find_layer",
    "layers",
]
