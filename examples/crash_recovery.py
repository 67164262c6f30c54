#!/usr/bin/env python3
"""Crash and recovery walk-through for every stack in the reproduction.

Exercises the four recovery stories the paper tells:

* the Virtual Log Disk's tail-record recovery and its scan fallback
  (Section 3.2), with power lost before the power-down record's write;
* a power loss injected *mid-write*, below the VLD, in the middle of its
  internal data-write / map-append sequence -- the atomicity claim;
* LFS checkpoint + roll-forward recovery;
* LFS with NVRAM, whose buffer survives the crash.

Run:  python examples/crash_recovery.py
"""

import random

from repro.blockdev import DeviceCrashed, FaultPlane, build_device_stack
from repro.disk import Disk, ST19101
from repro.hosts import SPARCSTATION_10
from repro.lfs import LFS


def vld_story() -> None:
    print("== Virtual Log Disk ==")
    vld = build_device_stack(Disk(ST19101), "vld")
    rng = random.Random(1)
    expected = {}
    for _ in range(400):
        lba = rng.randrange(vld.num_blocks)
        payload = bytes([rng.randrange(256)]) * 4096
        vld.write_block(lba, payload)
        expected[lba] = payload

    # Orderly power-down: the firmware stores the log tail.
    vld.power_down()
    vld.crash()
    outcome = vld.recover()
    ok = all(vld.read_block(l)[0] == p for l, p in expected.items())
    print(
        f"  power-down record: recovered {outcome.records_read} map "
        f"records in {outcome.elapsed * 1e3:.0f} ms simulated "
        f"(intact: {ok})"
    )

    # The rare failure: the power is gone before the power-down record's
    # own write reaches the media.
    FaultPlane(("sector-run", 1), "before").install(vld.disk)
    try:
        vld.power_down()
    except DeviceCrashed:
        vld.disk.faults = None  # the restart finds the media as it was left
    vld.crash()
    outcome = vld.recover()
    ok = all(vld.read_block(l)[0] == p for l, p in expected.items())
    print(
        f"  lost record -> scan of {outcome.blocks_scanned} positions "
        f"in {outcome.elapsed * 1e3:.0f} ms simulated (intact: {ok})"
    )
    print()


def midwrite_story() -> None:
    print("== Power loss mid-write (injected below the VLD) ==")
    disk = Disk(ST19101)
    vld = build_device_stack(disk, "vld")
    rng = random.Random(2)
    acknowledged = {}
    for _ in range(200):
        lba = rng.randrange(vld.num_blocks)
        payload = bytes([rng.randrange(256)]) * 4096
        vld.write_block(lba, payload)
        acknowledged[lba] = payload

    # Kill the drive on its 3rd physical write from now: inside the next
    # logical write's internal data-write / map-append sequence, with the
    # fatal write itself torn at sector granularity.
    FaultPlane(("sector-run", 3), "torn").install(disk)
    try:
        while True:
            lba = rng.randrange(vld.num_blocks)
            payload = bytes([rng.randrange(256)]) * 4096
            vld.write_block(lba, payload)
            acknowledged[lba] = payload  # only reached if acknowledged
    except DeviceCrashed as crash:
        print(f"  {crash}")
    disk.faults = None  # the restart finds the media as the crash left it

    vld.crash()
    outcome = vld.recover()
    ok = all(vld.read_block(l)[0] == p for l, p in acknowledged.items())
    print(
        f"  recovery by {'scan' if outcome.scanned else 'tail record'}: "
        f"every acknowledged write readable, the interrupted one invisible "
        f"(consistent: {ok})"
    )
    print()


def lfs_story(nvram: bool) -> None:
    label = "LFS with NVRAM buffer" if nvram else "LFS (volatile buffer)"
    print(f"== {label} ==")
    fs = LFS(build_device_stack(Disk(ST19101)), SPARCSTATION_10, nvram=nvram)
    fs.mkdir("/mail")
    fs.create("/mail/inbox")
    fs.write("/mail/inbox", 0, b"message one\n")
    fs.checkpoint()

    # Work past the checkpoint: flushed to the log, but not checkpointed.
    fs.write("/mail/inbox", 4096, b"message two\n")
    fs.sync()
    # And work that never left the buffer at all.
    fs.write("/mail/inbox", 8192, b"message three (buffered)\n")

    fs.crash()
    cost = fs.recover().breakdown
    one, _ = fs.read("/mail/inbox", 0, 12)
    two, _ = fs.read("/mail/inbox", 4096, 12)
    three, _ = fs.read("/mail/inbox", 8192, 25)
    print(f"  mount (checkpoint + roll-forward): "
          f"{cost.total * 1e3:.0f} ms simulated")
    print(
        "  checkpointed data  : "
        + ("safe" if one == b"message one\n" else "LOST")
    )
    print(
        "  rolled-forward data: "
        + ("safe" if two == b"message two\n" else "LOST")
    )
    survived = three == b"message three (buffered)\n"
    print(
        "  buffered-only data : "
        + ("safe (NVRAM)" if survived else "lost (volatile DRAM)")
    )
    print()


def main() -> None:
    vld_story()
    midwrite_story()
    lfs_story(nvram=False)
    lfs_story(nvram=True)


if __name__ == "__main__":
    main()
