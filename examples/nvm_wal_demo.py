#!/usr/bin/env python3
"""The NVM write-ahead tier, end to end (DESIGN.md Section 16).

Four short stories:

* a synchronous 4 KB write acks at NVM store+flush speed -- microseconds
  -- instead of waiting out a disk revolution;
* the dirty blocks destage to the backing Virtual Log Disk during idle
  time, leaving an empty log;
* power loss *between* the NVM commit and the destage: recovery scans
  the NVM log, recovers the VLD underneath, and replays every acked
  write -- nothing acked is lost;
* a torn final record (half-persisted at the instant of the crash) is
  detected by its CRC and discarded; every record before it replays.

Run:  python examples/nvm_wal_demo.py
"""

from repro.blockdev.interpose import DeviceCrashed, FaultPlane
from repro.blockdev.nvm import NVM_SPECS
from repro.disk import Disk, ST19101
from repro.nvm import NVWal
from repro.vlog.resilience import vlfsck
from repro.vlog.vld import VirtualLogDisk


def _blk(byte: int) -> bytes:
    return bytes([byte]) * 4096


def ack_latency_story() -> None:
    print("== Synchronous write ack: eager VLD vs NVM tier ==")
    vld = VirtualLogDisk(Disk(ST19101))
    clock = vld.disk.clock
    start = clock.now
    vld.write_block(0, _blk(0x11))
    eager = clock.now - start

    wal = NVWal(VirtualLogDisk(Disk(ST19101)))
    clock = wal.inner.disk.clock
    start = clock.now
    wal.write_block(0, _blk(0x11))
    nvm = clock.now - start
    print(f"  eager VLD write ack : {eager * 1e3:8.3f} ms")
    print(f"  NVM-absorbed ack    : {nvm * 1e3:8.3f} ms "
          f"({eager / nvm:,.0f}x faster)")
    print()


def destage_story() -> None:
    print("== Idle-time destage ==")
    wal = NVWal(VirtualLogDisk(Disk(ST19101)))
    for lba in range(8):
        wal.write_block(lba, _blk(0x20 + lba))
    before = wal.dirty_blocks
    backing_before = wal.inner.imap.get(0)
    wal.idle(0.25)  # a quarter second of simulated idle time
    print(f"  dirty blocks before idle: {before} "
          f"(backing map for lba 0: {backing_before})")
    print(f"  dirty blocks after idle : {wal.dirty_blocks} "
          f"(backing map for lba 0: {wal.inner.imap.get(0)})")
    print(f"  log resets: {wal.log_resets} -- the drained log restarts "
          f"at a new epoch")
    print()


def crash_before_destage_story() -> None:
    print("== Crash between NVM commit and destage ==")
    vld = VirtualLogDisk(Disk(ST19101))
    wal = NVWal(vld)
    expected = {lba: _blk(0x40 + lba) for lba in range(10)}
    for lba, payload in expected.items():
        wal.write_block(lba, payload)
    print(f"  {len(expected)} writes acked, {wal.dirty_blocks} still "
          f"dirty in NVM, backing VLD untouched")
    wal.crash()
    outcome = wal.recover()
    ok = all(wal.read_block(l)[0] == p for l, p in expected.items())
    clean = not vlfsck(vld).violations
    print(f"  recovery replayed {outcome.replayed_records} records / "
          f"{outcome.replayed_blocks} blocks "
          f"(intact: {ok}, vlfsck clean: {clean})")
    print()


def torn_tail_story() -> None:
    print("== Torn final record ==")
    vld = VirtualLogDisk(Disk(ST19101))
    wal = NVWal(vld)
    FaultPlane(("nvm-record", 4), "torn").install(wal.nvm)
    survived = {}
    try:
        for lba in range(8):
            payload = _blk(0x60 + lba)
            wal.write_block(lba, payload)
            survived[lba] = payload  # only reached for acked writes
    except DeviceCrashed:
        print(f"  power failed mid-append of record {len(survived) + 1}; "
              f"{len(survived)} writes were acked before it")
    wal.nvm.faults = None  # the restart finds the NVM as the crash left it
    wal.crash()
    outcome = wal.recover()
    ok = all(wal.read_block(l)[0] == p for l, p in survived.items())
    print(f"  torn tail detected: {outcome.torn_tail}; replayed "
          f"{outcome.replayed_records} acked records (intact: {ok})")
    print()


def main() -> None:
    ack_latency_story()
    destage_story()
    crash_before_destage_story()
    torn_tail_story()
    print("every acked write survived; the torn record never acked")


if __name__ == "__main__":
    main()
