"""A stack is a value: ``copy.deepcopy`` and a ``pickle`` round trip are
forks.

Every shape below is built, run through a seeded prefix, and then copied
both ways while it is quiescent (scheduler drained, no engine process in
flight).  The original and both copies then run the same next workload,
and each must end exactly where a fresh, uninterrupted run of prefix plus
workload ends: the same media bytes, the same clock reading, the same
disk counters, the same per-operation ``Breakdown`` totals and, where
there is a VLD, the same map and CRC table.

Nothing in ``src/`` helps but the media: there is no ``__getstate__``
and no fork API, and the one copy hook is ``MediaImage.__reduce__``,
which rebuilds a disk or NVM image from its written pages (the image
tests below).  What makes a stack copyable is what it does not hold -- no
closure over ``self`` (a copied closure still points at the original), no
per-instance ``struct.Struct`` and no attribute that only appears on
first use.  The copies run after the original has moved on, so a copy
still reading the original's state through a closure diverges here.
"""

from __future__ import annotations

import copy
import hashlib
import mmap
import pickle
import random
from dataclasses import replace

import pytest

from repro.blockdev.interpose import (
    DeviceCrashed,
    FaultDevice,
    FaultPlan,
    FaultPlane,
    InjectedReadError,
    MetricsDevice,
    TracingDevice,
)
from repro.disk.disk import Disk
from repro.disk.specs import ST19101
from repro.harness.configs import STACKS, build_sharded_volume, build_stack
from repro.hosts.specs import SPARCSTATION_10
from repro.nvm import NVWal
from repro.vlfs.vlfs import VLFS
from repro.vlog.compactor import FreeSpaceCompactor
from repro.vlog.resilience import MediaError, MediaScrubber
from repro.vlog.transactions import TransactionalVLD
from repro.vlog.vld import VirtualLogDisk
from repro.workloads.random_update import prepare_file
from tests._media import op_counts

FILE_BYTES = 1 << 20
PREFIX_UPDATES = 50
NEXT_OPS = 40
BLOCK = 4096


def _vlds_under(device):
    """The VLD at the bottom of an interposer / NVWal chain, if any."""
    while not isinstance(device, VirtualLogDisk):
        device = vars(device).get("inner")
        if device is None:
            return []
    return [device]


# -- file-system shapes ------------------------------------------------------

_VARIANTS = {
    "plain": {},
    "nvm": {"nvm": True},
    "satf-q4": {"queue_depth": 4, "sched": "satf"},
    "nvram": {"nvram": True},
    "metrics-trace": {"metrics": True, "trace": True},
    "faults": {"faults": FaultPlan(seed=5, slow_factor=3.0)},
}


def _fs_stack(config):
    def build():
        fs, disk, device = build_stack(config)
        return {"top": fs, "disks": [disk], "vlds": _vlds_under(device)}

    return build


def _vlfs():
    disk = Disk(ST19101)
    return {"top": VLFS(disk, SPARCSTATION_10), "disks": [disk], "vlds": []}


def _fs_prefix(stack) -> None:
    fs = stack["top"]
    prepare_file(fs, "/f", FILE_BYTES)
    rng = random.Random(1)
    for _ in range(PREFIX_UPDATES):
        block = rng.randrange(FILE_BYTES // BLOCK)
        fs.write("/f", block * BLOCK, bytes([rng.randrange(256)]) * BLOCK, sync=True)


def _fs_next(stack):
    fs = stack["top"]
    rng = random.Random(2)
    log = []
    for i in range(NEXT_OPS):
        block = rng.randrange(FILE_BYTES // BLOCK)
        if i % 5 == 4:
            data, cost = fs.read("/f", block * BLOCK, BLOCK)
            log.append(("read", hashlib.sha256(data).hexdigest(), cost.total.hex()))
        else:
            payload = bytes([rng.randrange(256)]) * BLOCK
            cost = fs.write("/f", block * BLOCK, payload, sync=i % 3 != 0)
            log.append(("write", cost.total.hex()))
        if i % 13 == 12:
            log.append(("idle", fs.idle(0.05).total.hex()))
    log.append(("sync", fs.sync().total.hex()))
    log.append(("idle", fs.idle(0.2).total.hex()))
    return log


# -- block-device shapes -----------------------------------------------------


def _bare_vld(cls=VirtualLogDisk):
    disk = Disk(ST19101, num_cylinders=4)
    vld = cls(disk)
    return {"top": vld, "disks": [disk], "vlds": [vld]}


def _vld_under_disk_faults():
    stack = _bare_vld()
    FaultPlane(
        read_error_rate=0.05,
        seed=9,
        flaky_sectors={s: 0.5 for s in range(0, 4096, 7)},
    ).install(stack["disks"][0])
    return stack


def _nvwal_vld():
    stack = _bare_vld()
    wal = NVWal(stack["top"])
    # Armed to fire inside the next workload: the prefix makes 35
    # appends, one per write or trim.
    FaultPlane(("nvm-record", 45), "torn").install(wal.nvm)
    return {**stack, "top": wal}


def _volume(**kwargs):
    volume, devices, disks = build_sharded_volume(3, **kwargs)
    vlds = [vld for device in devices for vld in _vlds_under(device)]
    return {"top": volume, "disks": disks, "vlds": vlds}


def _nvwal_volume():
    stack = _volume()
    return {**stack, "top": NVWal(stack["top"])}


def _satf_volume_fail_slow():
    return _volume(
        queue_depth=4,
        sched="satf",
        fault_plans={1: FaultPlan(seed=3, slow_factor=4.0, slow_after_ops=12)},
    )


def _device_ops(stack, seed: int, ops: int):
    """Seeded writes, reads, trims and idle grants on a block device;
    returns one entry per operation.  A crash is part of the outcome:
    the device crashes, recovers, and the workload goes on."""
    device = stack["top"]
    rng = random.Random(seed)
    span = min(device.num_blocks, 400)
    log = []
    for i in range(ops):
        lba = rng.randrange(span - 8)
        count = rng.choice((1, 1, 2, 5))
        kind = i % 10
        try:
            if kind in (3, 7):
                data, cost = device.read_blocks(lba, count)
                entry = ("read", hashlib.sha256(data).hexdigest(), cost.total.hex())
            elif kind == 5 and rng.random() < 0.5:
                entry = ("trim", device.trim(lba, count).total.hex())
            elif kind == 9:
                device.idle(rng.choice((0.0, 0.01, 0.05)))
                entry = ("idle",)
            elif isinstance(device, TransactionalVLD) and kind == 1:
                writes = [(lba + 2 * j, bytes([i + j]) * BLOCK) for j in range(3)]
                entry = ("atomic", device.write_atomic(writes).total.hex())
            else:
                payload = bytes([rng.randrange(1, 256)]) * (count * BLOCK)
                entry = ("write", device.write_blocks(lba, count, payload).total.hex())
        except DeviceCrashed:
            _restore_power(stack)
            device.crash()
            outcome = device.recover()
            entry = ("crash", outcome.breakdown.total.hex())
        except (InjectedReadError, MediaError) as fault:
            entry = ("fault", type(fault).__name__)
        log.append(entry)
    return log


def _restore_power(stack) -> None:
    """The restart after a crash: the latched fault plane comes off the
    media it was installed on."""
    media = [*stack["disks"], getattr(stack["top"], "nvm", None)]
    for medium in media:
        if medium is not None and medium.faults is not None:
            if medium.faults.crashed:
                medium.faults = None


def _device_prefix(stack) -> None:
    _device_ops(stack, seed=1, ops=PREFIX_UPDATES)


def _device_next(stack):
    return _device_ops(stack, seed=2, ops=NEXT_OPS)


# -- the shapes ----------------------------------------------------------------

SHAPES = {
    f"{name}/{variant}": (
        _fs_stack(replace(config, **overrides)), _fs_prefix, _fs_next
    )
    for name, config in STACKS.items()
    for variant, overrides in _VARIANTS.items()
}
SHAPES.update(
    {
        "vlfs": (_vlfs, _fs_prefix, _fs_next),
        "vld": (_bare_vld, _device_prefix, _device_next),
        "transactional-vld": (
            lambda: _bare_vld(TransactionalVLD), _device_prefix, _device_next
        ),
        "vld/disk-faults": (_vld_under_disk_faults, _device_prefix, _device_next),
        "nvwal-vld/armed": (_nvwal_vld, _device_prefix, _device_next),
        "nvwal-volume": (_nvwal_volume, _device_prefix, _device_next),
        "volume-satf/fail-slow": (
            _satf_volume_fail_slow, _device_prefix, _device_next
        ),
    }
)


def _state(stack, log):
    """Everything a fork must reproduce, as plain comparable values."""
    disks = stack["disks"]
    return {
        "ops": log,
        "media": [hashlib.sha256(disk._data).hexdigest() for disk in disks],
        "clock": [disk.clock.now.hex() for disk in disks],
        "counters": [op_counts(disk) for disk in disks],
        "maps": [list(vld.imap.items()) for vld in stack["vlds"]],
        "crcs": [
            list(vld.resilience.checksums.items())
            for vld in stack["vlds"]
        ],
    }


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_fork_runs_as_a_fresh_build_would(shape):
    build, prefix, follow = SHAPES[shape]

    fresh = build()
    prefix(fresh)
    expected = _state(fresh, follow(fresh))
    del fresh

    original = build()
    prefix(original)
    forks = {
        "deepcopy": copy.deepcopy(original),
        "pickle": pickle.loads(
            pickle.dumps(original, protocol=pickle.HIGHEST_PROTOCOL)
        ),
    }
    assert _state(original, follow(original)) == expected
    for how, fork in forks.items():
        assert _state(fork, follow(fork)) == expected, how


def _pickle_fork(value):
    return pickle.loads(pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))


_FORKS = {"deepcopy": copy.deepcopy, "pickle": _pickle_fork}


def _sha(image) -> str:
    return hashlib.sha256(image).hexdigest()


@pytest.mark.parametrize("how", sorted(_FORKS))
def test_a_written_disk_image_forks_byte_for_byte(how):
    disk = Disk(ST19101, num_cylinders=4)
    rng = random.Random(3)
    for _ in range(64):
        sector = rng.randrange(disk.total_sectors - 8)
        disk.write(sector, 8, rng.randbytes(8 * disk.sector_bytes))
    before = _sha(disk._data)
    fork = _FORKS[how](disk)
    assert type(fork._data) is type(disk._data)
    assert _sha(fork._data) == before
    fork.write(0, 8, b"\x5a" * (8 * disk.sector_bytes))
    assert _sha(fork._data) != before
    assert _sha(disk._data) == before


@pytest.mark.parametrize("how", sorted(_FORKS))
def test_an_nvwal_image_forks_byte_for_byte(how):
    wal = NVWal(VirtualLogDisk(Disk(ST19101, num_cylinders=4)))
    for lba in range(12):
        wal.write_block(lba, bytes([lba + 1]) * BLOCK)
    nvm = wal.nvm
    before = _sha(nvm._image)
    fork = _FORKS[how](nvm)
    assert _sha(fork._image) == before
    fork.store(0, b"\xa5" * 64)
    fork.flush()
    assert _sha(fork._image) != before
    assert _sha(nvm._image) == before


def test_a_fork_carries_only_the_written_pages():
    disk = Disk(ST19101)
    assert disk._data._written_runs() == ()
    assert len(pickle.dumps(disk._data)) < mmap.PAGESIZE
    lo = 1000 * disk.sector_bytes
    disk.write(1000, 8, b"\x01" * (8 * disk.sector_bytes))
    # Bytes [512000, 516096) lie within one page for any page size from
    # 4 KiB to 64 KiB, so one page-sized run is written.
    ((offset, data),) = disk._data._written_runs()
    assert offset == lo - lo % mmap.PAGESIZE
    assert len(data) == mmap.PAGESIZE
    assert len(pickle.dumps(disk._data)) < 2 * mmap.PAGESIZE


def test_the_armed_injector_fires_in_the_forked_workload():
    # The NVWal shape is only a crash-point fork if the crash lands after
    # the fork: the prefix must leave the plane armed, the next
    # workload must trip it.
    _build, prefix, follow = SHAPES["nvwal-vld/armed"]
    stack = _build()
    prefix(stack)
    assert stack["top"].nvm.faults.counts["nvm-record"] < 45
    assert any(entry[0] == "crash" for entry in follow(stack))


def test_first_use_state_is_built_by_the_constructor():
    # A fork taken before a first use would build that state afresh from
    # whatever the fork holds then; built in __init__, it is copied with
    # everything else.
    vld = VirtualLogDisk(Disk(ST19101, num_cylinders=4))
    assert isinstance(vars(vld)["compactor"], FreeSpaceCompactor)
    assert vars(vld.compactor)["_seeks_sorted"] is True
    assert isinstance(vars(vld.resilience)["scrubber"], MediaScrubber)
    fault = FaultDevice(vld, FaultPlan(seed=5, slow_factor=3.0))
    assert vars(fault)["last_slow_extra"] == 0.0
    for observer, source in (
        (TracingDevice(vld), None),
        (MetricsDevice(fault), fault),
        (TracingDevice(MetricsDevice(fault)), fault),
    ):
        assert vars(observer)["_fault"] is source
