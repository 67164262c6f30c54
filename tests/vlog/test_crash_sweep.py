"""Crash-point sweep: kill the device at *every* physical write of a
workload and verify recovery (Section 3.2's atomicity/durability claims).

The :class:`~repro.blockdev.interpose.FaultPlane` sits below the
logical layer and counts every physical write as one ``"sector-run"``
persistence event, so the crash lands inside the internal data-write /
map-append sequence -- between the eager data write and the commit, on
the commit itself, or on a torn data write.  After every crash point:

* every acknowledged logical write reads back its exact payload;
* the interrupted write is atomic: its block reads entirely-old or
  entirely-new, never a mixture;
* recovery is stable -- a second crash + recovery rebuilds the
  identical map and changes no slot's bytes, and the virtual log's
  invariants hold after each.

The driver calls nothing on the system under test but ``write`` /
``read`` and the lifecycle every device and file system shares --
``power_down()``, ``crash()``, ``recover()`` -- so another system under
test is another factory.

The same sweep runs against both owners of a virtual log -- a
:class:`VirtualLogDisk` (random block overwrites) and a :class:`VLFS`
(four files, sync overwrites) -- and takes an orderly ``power_down()`` in
the middle of the workload as one more input: no ``recover()`` follows
it, the workload simply continues, so the power-down record must be
erased before the log it describes moves on (crash points land before
the record, between record and erase, on the erase, and after it).

Recovery is restartable: the nested sweep forks each crashed stack once
per physical write its recovery issues, crashes the fork there (torn),
recovers again, and holds the result to the same three checks.
"""

import copy
import random

import pytest

from repro.blockdev.interpose import DeviceCrashed, FaultPlane
from repro.disk.disk import Disk
from repro.disk.specs import ST19101
from repro.hosts.specs import SPARCSTATION_10
from repro.vlfs.vlfs import VLFS
from repro.vlog.vld import VirtualLogDisk

_BLOCK = 4096
_WRITES = 12
_LBA_SPACE = 16  # small, to exercise rewrites (displacement + recycling)
_FS_WRITES = 14
_FS_FILES = 4
#: Workload step an orderly power_down() precedes in the ``pd`` points.
_POWER_DOWN_AT = 5


def _payload(step: int, lba: int) -> bytes:
    return bytes([(37 * step + lba) % 251 + 1]) * _BLOCK


class _UnderTest:
    """The lifecycle, forwarded to ``device``.  Every recovery must
    leave the virtual log's invariants intact, and a recovery with no
    write since the last one must rebuild the identical map."""

    #: The map the last recovery rebuilt, until the next write.
    _recovered = None

    def write(self, slot, payload):
        self._recovered = None
        self._write(slot, payload)

    def power_down(self):
        return self.device.power_down()

    def crash(self):
        self.device.crash()

    def recover(self):
        outcome = self.device.recover()
        self.device.vlog.check_invariants()
        rebuilt = self._map_state()
        assert self._recovered in (None, rebuilt), "recovery is not stable"
        self._recovered = rebuilt
        return outcome


class _VLDUnderTest(_UnderTest):
    """Random single-block overwrites of a small LBA space."""

    steps = _WRITES
    slots = _LBA_SPACE

    def __init__(self):
        self.disk = Disk(ST19101, num_cylinders=2)
        self.device = VirtualLogDisk(self.disk)

    def unwritten(self, slot):
        return bytes(_BLOCK)

    def _write(self, slot, payload):
        self.device.write_block(slot, payload)

    def read(self, slot):
        return self.device.read_block(slot)[0]

    def _map_state(self):
        return dict(self.device.imap.items())


class _VLFSUnderTest(_UnderTest):
    """Sync overwrites of the first block of four files (created, filled
    and flushed before the sweep starts counting writes)."""

    steps = _FS_WRITES
    slots = _FS_FILES

    def __init__(self):
        self.disk = Disk(ST19101, num_cylinders=2)
        self.device = VLFS(self.disk, SPARCSTATION_10)
        for slot in range(_FS_FILES):
            self.device.create(f"/f{slot}")
            self.device.write(f"/f{slot}", 0, self.unwritten(slot), sync=True)
        self.device.sync()

    def unwritten(self, slot):
        return bytes([200 + slot]) * _BLOCK

    def _write(self, slot, payload):
        self.device.write(f"/f{slot}", 0, payload, sync=True)

    def read(self, slot):
        return self.device.read(f"/f{slot}", 0, _BLOCK)[0]

    def _map_state(self):
        imap = self.device.imap
        return {inum: imap.get(inum) for inum in imap.live_inums()}


def _run_workload(under_test, power_down_at, acked=None):
    """Replay the deterministic workload; ``acked`` collects what was
    acknowledged.  Returns the write a crash interrupted as ``(slot, new
    payload, old payload)``, or ``None`` when the run completed."""
    rng = random.Random(0xC4A5)
    acked = {} if acked is None else acked
    for step in range(under_test.steps):
        if step == power_down_at:
            try:
                under_test.power_down()
            except DeviceCrashed:
                return ()
        slot = rng.randrange(under_test.slots)
        payload = _payload(step, slot)
        try:
            under_test.write(slot, payload)
        except DeviceCrashed:
            return (slot, payload, acked.get(slot, under_test.unwritten(slot)))
        acked[slot] = payload
    return None


def _clean_run_write_count(factory, power_down_at=None) -> int:
    under_test = factory()
    before = under_test.disk.counters.writes
    _run_workload(under_test, power_down_at)
    return under_test.disk.counters.writes - before


def _sweep_params(factory):
    """Every crash point of the plain workload under its bare number
    (the ids this sweep has always had), then every crash point of the
    workload with the mid-run power_down() as ``pd-N``."""
    plain = [
        pytest.param(crash_at, None, id=str(crash_at))
        for crash_at in range(1, _clean_run_write_count(factory) + 1)
    ]
    with_power_down = [
        pytest.param(crash_at, _POWER_DOWN_AT, id=f"pd-{crash_at}")
        for crash_at in range(
            1, _clean_run_write_count(factory, _POWER_DOWN_AT) + 1
        )
    ]
    return plain + with_power_down


def _crashed(factory, crash_at, power_down_at):
    """The workload, crashed at its ``crash_at``-th physical write (torn)
    and not yet recovered: ``(under_test, acked, in_flight)``."""
    under_test = factory()
    FaultPlane(("sector-run", crash_at), "torn").install(under_test.disk)
    acked = {}
    in_flight = _run_workload(under_test, power_down_at, acked)
    under_test.disk.faults = None
    assert in_flight is not None, "sweep point beyond the workload's writes"
    under_test.crash()
    return under_test, acked, in_flight


def _check_crash_point(factory, crash_at, power_down_at):
    under_test, acked, in_flight = _crashed(factory, crash_at, power_down_at)
    outcome = under_test.recover()
    if power_down_at is None:
        assert outcome.scanned  # no power-down record was ever written
    _check_recovered(under_test, acked, in_flight)


def _check_recovered(under_test, acked, in_flight):
    """Durability, atomicity and stability of a recovered stack."""
    # Durability: everything acknowledged reads back exactly.
    for slot, payload in acked.items():
        assert under_test.read(slot) == payload, (
            f"acked write to slot {slot} lost"
        )

    # Atomicity: the interrupted write is all-old or all-new.  (A crash
    # inside power_down() itself interrupts no write.)
    if in_flight:
        slot, new, old = in_flight
        assert under_test.read(slot) in (old, new), (
            f"torn state visible at slot {slot} after recovery"
        )

    # Stability: a second crash + recovery (which checks that it rebuilt
    # the same map) changes no slot's bytes.
    first = [under_test.read(slot) for slot in range(under_test.slots)]
    under_test.crash()
    under_test.recover()
    assert [under_test.read(slot) for slot in range(under_test.slots)] == first


@pytest.mark.parametrize(
    "crash_at,power_down_at", _sweep_params(_VLDUnderTest)
)
def test_recovery_is_consistent_at_every_crash_point(crash_at, power_down_at):
    _check_crash_point(_VLDUnderTest, crash_at, power_down_at)


@pytest.mark.parametrize(
    "crash_at,power_down_at", _sweep_params(_VLFSUnderTest)
)
def test_vlfs_recovery_is_consistent_at_every_crash_point(
    crash_at, power_down_at
):
    _check_crash_point(_VLFSUnderTest, crash_at, power_down_at)


def _recovery_writes(crashed) -> int:
    """The physical writes a recovery of ``crashed`` issues, counted on
    a fork."""
    fork = copy.deepcopy(crashed)
    plane = FaultPlane().install(fork.disk)
    fork.recover()
    return plane.counts["sector-run"]


def _check_nested_crash_points(factory, crash_at, power_down_at):
    """Crash every recovery of the point at each of its writes, torn;
    the next recovery must lose nothing the first crash had acked."""
    crashed, acked, in_flight = _crashed(factory, crash_at, power_down_at)
    for nested in range(1, _recovery_writes(crashed) + 1):
        under_test = copy.deepcopy(crashed)
        FaultPlane(("sector-run", nested), "torn").install(under_test.disk)
        with pytest.raises(DeviceCrashed):
            under_test.recover()
        under_test.disk.faults = None
        under_test.crash()
        under_test.recover()
        _check_recovered(under_test, acked, in_flight)


@pytest.mark.parametrize(
    "crash_at,power_down_at", _sweep_params(_VLDUnderTest)
)
def test_a_crash_inside_recovery_loses_nothing(crash_at, power_down_at):
    _check_nested_crash_points(_VLDUnderTest, crash_at, power_down_at)


@pytest.mark.parametrize(
    "crash_at,power_down_at", _sweep_params(_VLFSUnderTest)
)
def test_vlfs_a_crash_inside_recovery_loses_nothing(crash_at, power_down_at):
    _check_nested_crash_points(_VLFSUnderTest, crash_at, power_down_at)


@pytest.mark.parametrize("factory", [_VLDUnderTest, _VLFSUnderTest])
@pytest.mark.parametrize("power_down_at", [None, _POWER_DOWN_AT])
def test_the_plane_counts_what_the_sweep_counts(factory, power_down_at):
    # The sweep's ids are physical writes counted by the disk; the
    # plane's ``"sector-run"`` ordinal is the same number.
    under_test = factory()
    plane = FaultPlane().install(under_test.disk)
    _run_workload(under_test, power_down_at)
    assert plane.counts == {
        "sector-run": _clean_run_write_count(factory, power_down_at),
        "nvm-record": 0,
        "nvm-superblock": 0,
    }


def test_the_nested_sweep_reaches_recoveries_that_write():
    # A recovery of a log with records in it erases the power-down
    # record's block at least: the nested sweep has points to crash.
    for factory in (_VLDUnderTest, _VLFSUnderTest):
        last = _clean_run_write_count(factory)
        crashed, _acked, _in_flight = _crashed(factory, last, None)
        assert _recovery_writes(crashed) >= 1


def test_sweep_covers_multiple_writes_per_logical_write():
    # The VLD pays at least a data write and a map append per logical
    # write, so the sweep has strictly more crash points than the
    # workload has writes -- i.e. it really does land *inside* the
    # internal sequences.
    assert _clean_run_write_count(_VLDUnderTest) > _WRITES
    assert _clean_run_write_count(_VLFSUnderTest) > _FS_WRITES


def test_power_down_points_cover_the_record_and_its_erase():
    # The mid-run power_down() adds exactly two physical writes to the
    # workload -- the record and, before the next log append, its erase
    # -- so the ``pd`` points include a crash on each.
    for factory in (_VLDUnderTest, _VLFSUnderTest):
        assert (
            _clean_run_write_count(factory, _POWER_DOWN_AT)
            == _clean_run_write_count(factory) + 2
        )
