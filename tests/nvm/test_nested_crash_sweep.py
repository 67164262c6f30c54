"""NVWal -> VLD crash sweep, and a crash inside every recovery of it.

The workload overwrites a few blocks through an NVWal whose log holds
three records, so pressure destages interleave NVM-only and destaged
state.  The first crash lands at every ``"nvm-record"`` event -- the
tier's commit point -- with the record whole (``after``) or torn.  Each
crashed stack is then forked once per persistence event its recovery
issues: every physical write (the VLD's own recovery, the replay's
destage) and the NVM superblock's epoch bump, each in all three
variants.  The fork crashes there, recovers again, and must hold:

* every write acknowledged before the first crash reads back exactly;
* the write the first crash interrupted reads old or new (a crash after
  the record persisted legally leaves it new, so it is exempt from the
  acknowledged check);
* recovery is stable: another crash and recovery changes no block;
* after a crash at the superblock reset, the stack keeps serving: more
  writes, a second crash and recovery lose none of them.
"""

import copy
import random

import pytest

from repro.blockdev.interpose import CRASH_VARIANTS, DeviceCrashed, FaultPlane
from repro.blockdev.nvm import NVM_SPECS
from repro.disk.disk import Disk
from repro.disk.specs import ST19101
from repro.nvm import NVWal
from repro.vlog.resilience import vlfsck
from repro.vlog.vld import VirtualLogDisk

_BLOCK = 4096
_WRITES = 10
_LBAS = 6
#: Room for three single-block records: every fourth append destages.
_LOG_BYTES = 64 + 3 * (37 + _BLOCK)


def _payload(step: int, lba: int) -> bytes:
    return bytes([(29 * step + lba) % 251 + 1]) * _BLOCK


def _stack():
    vld = VirtualLogDisk(Disk(ST19101, num_cylinders=2))
    spec = NVM_SPECS["nvdimm"].with_overrides(capacity_bytes=_LOG_BYTES)
    return NVWal(vld, spec=spec)


def _run(wal, acked, steps=range(_WRITES)):
    """Write the seeded overwrites; returns the interrupted write as
    ``(lba, new, old)``, or ``None`` when every write was acked."""
    rng = random.Random(0x4E56 + steps.start)
    for step in steps:
        lba = rng.randrange(_LBAS)
        payload = _payload(step, lba)
        try:
            wal.write_block(lba, payload)
        except DeviceCrashed:
            return lba, payload, acked.get(lba, bytes(_BLOCK))
        acked[lba] = payload
    return None


def _plane(wal, crash_at=None, variant="torn"):
    return FaultPlane(crash_at, variant).install(wal.inner.disk, wal.nvm)


def _detach(wal):
    wal.inner.disk.faults = wal.nvm.faults = None


def _record_count() -> int:
    wal = _stack()
    plane = _plane(wal)
    _run(wal, {})
    assert wal.pressure_destages > 0
    return plane.counts["nvm-record"]


def _crashed(record, variant):
    wal = _stack()
    _plane(wal, ("nvm-record", record), variant)
    acked = {}
    in_flight = _run(wal, acked)
    assert in_flight is not None, "crash point beyond the workload"
    _detach(wal)
    wal.crash()
    return wal, acked, in_flight


def _check(wal, acked, in_flight):
    lba, new, old = in_flight
    for slot, payload in acked.items():
        if slot != lba:
            assert wal.read_block(slot)[0] == payload, f"acked lba {slot} lost"
    assert wal.read_block(lba)[0] in (old, new), f"lba {lba} torn"
    first = [wal.read_block(slot)[0] for slot in range(_LBAS)]
    wal.crash()
    wal.recover()
    assert [wal.read_block(slot)[0] for slot in range(_LBAS)] == first
    assert not vlfsck(wal.inner).violations


def _recovery_events(crashed):
    fork = copy.deepcopy(crashed)
    plane = _plane(fork)
    fork.recover()
    return plane.counts


def _first_points():
    return [
        pytest.param(record, variant, id=f"{record}-{variant}")
        for record in range(1, _record_count() + 1)
        for variant in ("after", "torn")
    ]


@pytest.mark.parametrize("record,variant", _first_points())
def test_a_crash_inside_recovery_loses_nothing(record, variant):
    crashed, acked, in_flight = _crashed(record, variant)
    fork = copy.deepcopy(crashed)
    fork.recover()
    _check(fork, acked, in_flight)
    counts = _recovery_events(crashed)
    for kind in ("sector-run", "nvm-superblock"):
        for nested in range(1, counts[kind] + 1):
            for nested_variant in CRASH_VARIANTS:
                wal = copy.deepcopy(crashed)
                _plane(wal, (kind, nested), nested_variant)
                with pytest.raises(DeviceCrashed):
                    wal.recover()
                _detach(wal)
                wal.crash()
                wal.recover()
                _check(wal, acked, in_flight)
                if kind == "nvm-superblock":
                    # The tier keeps serving from whichever epoch the
                    # reset left, through another crash.
                    later = dict(acked)
                    later[in_flight[0]] = wal.read_block(in_flight[0])[0]
                    assert _run(wal, later, range(_WRITES, 2 * _WRITES)) is None
                    wal.crash()
                    wal.recover()
                    for slot, payload in later.items():
                        assert wal.read_block(slot)[0] == payload


def test_recoveries_reach_the_superblock_reset():
    # A recovery that replays records ends by resetting the log, so the
    # sweep crashes at the superblock event too.
    crashed, _acked, _in_flight = _crashed(_record_count(), "after")
    counts = _recovery_events(crashed)
    assert counts["nvm-superblock"] == 1 and counts["sector-run"] > 0
