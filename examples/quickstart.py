#!/usr/bin/env python3
"""Quickstart: a Virtual Log Disk in five minutes.

Creates a simulated Seagate ST19101, wraps it in a Virtual Log Disk, and
demonstrates the paper's three headline properties:

1. synchronous random writes at a fraction of update-in-place latency,
2. atomicity: a crash loses nothing that was acknowledged,
3. fast recovery from the firmware's power-down record -- with a scan
   fallback when power fails before that record is written.

Devices are built through :func:`repro.build_device_stack`, which can
thread observability layers into any stack; step 1 uses its metrics
interposer to show *where* each device spends its time.

Run:  python examples/quickstart.py
"""

import random

from repro import DeviceCrashed, FaultPlane, MetricsDevice, build_device_stack
from repro.blockdev import find_layer
from repro.disk import Disk, ST19101
from repro.vlog import VirtualLogDisk


def main() -> None:
    rng = random.Random(2026)

    # -- 1. Eager writing vs update-in-place --------------------------
    print("== 1. Random 4 KB synchronous writes ==")
    results = {}
    for label, device_type in (
        ("update-in-place", "regular"),
        ("virtual log disk", "vld"),
    ):
        device = build_device_stack(
            Disk(ST19101), device_type, metrics=True
        )
        metrics = find_layer(device, MetricsDevice)
        total = 0.0
        trials = 200
        for i in range(trials):
            lba = rng.randrange(device.num_blocks)
            breakdown = device.write_block(lba, bytes([i % 251]) * 4096)
            total += breakdown.total
        results[label] = total / trials
        fractions = metrics.component_fractions(include_host=False)
        parts = " ".join(
            f"{k}={v * 100:.0f}%" for k, v in fractions.items() if v
        )
        print(
            f"  {label:18}: {results[label] * 1e3:6.3f} ms per write "
            f"({parts})"
        )
    speedup = results["update-in-place"] / results["virtual log disk"]
    print(f"  -> eager writing is {speedup:.1f}x faster\n")

    # -- 2. Crash atomicity --------------------------------------------
    print("== 2. Crash safety ==")
    disk = Disk(ST19101)
    vld = VirtualLogDisk(disk)
    vld.write_block(7, b"acknowledged data" + bytes(4079))
    vld.crash()  # power fails; no orderly shutdown
    outcome = vld.recover()
    data, _ = vld.read_block(7)
    print(f"  recovery path: {'scan' if outcome.scanned else 'tail record'}")
    print(f"  data survived: {data.startswith(b'acknowledged data')}\n")

    # -- 3. Recovery cost: tail record vs scan -------------------------
    print("== 3. Recovery cost ==")
    disk = Disk(ST19101)
    vld = VirtualLogDisk(disk)
    for lba in range(500):
        vld.write_block(lba, bytes([lba % 251]) * 4096)
    vld.power_down()  # firmware records the log tail
    vld.crash()
    fast = vld.recover()
    print(
        f"  with power-down record: {fast.elapsed * 1e3:7.1f} ms "
        f"({fast.records_read} map records read)"
    )
    # The rare power-down failure: the power is gone before the record's
    # own write reaches the media.
    FaultPlane(("sector-run", 1), "before").install(disk)
    try:
        vld.power_down()
    except DeviceCrashed:
        disk.faults = None  # the restart finds the media as the crash left it
    vld.crash()
    slow = vld.recover()
    print(
        f"  no valid record -> scan: {slow.elapsed * 1e3:7.1f} ms "
        f"({slow.blocks_scanned} records examined)"
    )
    data, _ = vld.read_block(123)
    print(f"  data intact after both recoveries: "
          f"{data == bytes([123]) * 4096}")


if __name__ == "__main__":
    main()
