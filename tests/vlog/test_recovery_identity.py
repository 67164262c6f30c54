"""Recovery pinned end to end, for every packaging of the pipeline.

``test_write_path_is_pinned`` covers one recovery: a VLD by power-down
record.  This pin covers each way ``recover()`` can run: a VLD recovered
by record, by scan and by degraded reconstruction (one interior map
record on a dead sector); a VLFS by record and by scan; an ``NVWal`` over
a VLD, clean and with a torn final append; an ``NVWal`` over a 3-shard
volume; and one ``ShardedVolume.recover_shard``.  Each case hashes every
``RecoveryOutcome`` field (its parts' too, and every ``Breakdown``
component bit for bit), the clock, and the rebuilt map and free map after
``crash()`` + ``recover()``, then reads every acknowledged block back.

The goldens were recorded under ``PYTHONHASHSEED`` 0, 1 and random.  A
change to how recovery reads the media may change host time only; one
that reads fewer records re-records the cases it moves, on purpose.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib

import pytest

from repro.blockdev.interpose import DeviceCrashed, FaultPlane
from repro.disk.disk import Disk
from repro.disk.specs import ST19101
from repro.harness.configs import build_sharded_volume
from repro.hosts.specs import SPARCSTATION_10
from repro.nvm import NVWal
from repro.vlfs.vlfs import VLFS
from repro.vlog.entries import QUARANTINE_CHUNK_BASE
from repro.vlog.vld import VirtualLogDisk
from tests._media import silently_corrupt
from tests.vlog.test_recovery_scan_reuse import (
    RAISED_AFTER_POWER_DOWN,
    RAISED_AFTER_SCAN,
    SCAN_LOST_THE_TAIL,
    _flaky_tail_recovery,
    _lost,
)

BS = 4096

#: sha256 per case, recorded before recovery lost its untimed mode;
#: ``vld-record`` and ``vld-scan`` re-recorded on purpose, under
#: PYTHONHASHSEED 0, 1 and random, when the traversal stopped expanding
#: superseded map records; the six cases a scan or a multi-child pop
#: reaches (``vld-scan``, ``vld-reconstruct``, ``vlfs-scan``, both
#: ``nvwal-vld`` and ``volume-recover-shard``) the same way when the
#: walk began taking the scan's records and reading children in
#: access-time order; ``vld-reconstruct`` again when recovery began
#: re-reading the slots its scan zero-filled.
_GOLDEN_RECOVERY_SHA256 = {
    "vld-record": (
        "8610c08f45f50d19e9914957cc4b5d89b7a2058686841bef3118f9265e58f528"
    ),
    "vld-scan": (
        "a39d9ea35725be6d2a94d644391b3f9f8a3c2008d84b5cc7d4eceb122c24958e"
    ),
    "vld-reconstruct": (
        "539379c2238493b0f05f94bc4fad790df4ac5b0bb3aad6b3519899be4ba04ecd"
    ),
    "vlfs-record": (
        "e58036aa813ca8ea8f2d93fc933bd35036d232a9302cccb8dd2688783b743460"
    ),
    "vlfs-scan": (
        "7f5d1f3cc8e137c13ee5dae0da6459a0fb4f112fc4e10013bddb218a93cf0845"
    ),
    "nvwal-vld-clean": (
        "4d5181e2a9d1bd40564bfeec6ade6216802e90c243358ac04581cb649d03f1e8"
    ),
    "nvwal-vld-torn": (
        "c1f4f5f36e2e31ee5ef0b1ca7996a85a92153cf2bea2dc50dd3542ee14cc8d10"
    ),
    "nvwal-volume-x3": (
        "15b7fd5ad5523c901267ee99a3e97c0f37c858935d2595e635ed7bce8562e01d"
    ),
    "volume-recover-shard": (
        "09dc016790b2fc8ff7034c083e466c9cef3df5f29ce6aaf67384c1d0e026aa80"
    ),
}


def _blk(tag: int) -> bytes:
    return bytes([tag % 251 + 1]) * BS


def _breakdown(breakdown) -> str:
    return " ".join(
        value.hex()
        for value in (
            breakdown.scsi, breakdown.transfer, breakdown.locate, breakdown.other
        )
    )


def _outcome(outcome) -> tuple:
    """Every field, the breakdown bit for bit, the parts recursively."""
    fields = []
    for field in dataclasses.fields(outcome):
        value = getattr(outcome, field.name)
        if field.name == "breakdown":
            value = _breakdown(value)
        elif field.name == "parts":
            value = [_outcome(part) for part in value]
        fields.append((field.name, value))
    return tuple(fields)


def _freemap(freemap) -> tuple:
    return (
        freemap.free_sectors,
        hashlib.sha256(repr(freemap._masks).encode()).hexdigest(),
        freemap.quarantined_sectors(),
    )


def _vld_state(vld) -> tuple:
    return (
        sorted(vld.imap.items()),
        _freemap(vld.freemap),
        vld.vlog.tail,
        vld.vlog.next_seqno,
        sorted(vld.resilience.quarantine.sectors),
    )


def _digest(*parts) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()


def _fill_vld(vld, blocks) -> dict:
    expected = {}
    for i, lba in enumerate(blocks):
        expected[lba] = _blk(lba + i)
        vld.write_block(lba, expected[lba])
    return expected


def _read_back(device, expected) -> None:
    for lba, data in expected.items():
        assert device.read_block(lba)[0] == data, lba


_VLD_BLOCKS = [0, 1, 2, 7, 40, 41, 90, 113, 120, 130, 500, 2, 0, 41]


def _vld(power_down: bool) -> str:
    vld = VirtualLogDisk(Disk(ST19101, num_cylinders=12))
    expected = _fill_vld(vld, _VLD_BLOCKS)
    vld.write_blocks(200, 3, _blk(200) + _blk(201) + _blk(202))
    expected.update({200: _blk(200), 201: _blk(201), 202: _blk(202)})
    vld.trim(7)
    expected[7] = bytes(BS)
    if power_down:
        vld.power_down()
    vld.crash()
    outcome = vld.recover()
    assert outcome.used_power_down_record is power_down
    assert outcome.scanned is not power_down
    _read_back(vld, expected)
    return _digest(_outcome(outcome), vld.clock.now.hex(), _vld_state(vld))


def _vld_reconstruct() -> str:
    disk = Disk(ST19101, num_cylinders=12)
    vld = VirtualLogDisk(disk)
    vld.write_block(120, _blk(120))  # chunk 1's only record ...
    interior = vld.vlog.tail
    expected = _fill_vld(vld, range(9))  # ... stays interior
    vld.crash()
    FaultPlane(
        bad_sectors={interior * vld.vlog.sectors_per_block}
    ).install(disk)
    outcome = vld.recover()
    assert outcome.degraded and outcome.reconstructed
    _read_back(vld, expected)
    assert vld.read_block(120)[0] == bytes(BS)
    return _digest(_outcome(outcome), vld.clock.now.hex(), _vld_state(vld))


def _vlfs(power_down: bool) -> str:
    fs = VLFS(Disk(ST19101, num_cylinders=30), SPARCSTATION_10)
    files = {}
    for i in range(6):
        path = f"/f{i}"
        files[path] = bytes([i + 1]) * (3000 + 2500 * i)
        fs.create(path)
        fs.write(path, 0, files[path], sync=True)
    fs.mkdir("/d")
    fs.rename("/f1", "/d/g")
    files["/d/g"] = files.pop("/f1")
    fs.unlink("/f2")
    del files["/f2"]
    fs.sync()
    if power_down:
        fs.power_down()
    fs.crash()
    outcome = fs.recover()
    assert outcome.used_power_down_record is power_down
    for path, data in files.items():
        assert fs.read(path, 0, len(data))[0] == data, path
    imap = sorted((inum, fs.imap.get(inum)) for inum in fs.imap.live_inums())
    return _digest(
        _outcome(outcome),
        fs.clock.now.hex(),
        imap,
        _freemap(fs.freemap),
        fs.vlog.tail,
        fs.vlog.next_seqno,
    )


def _nvwal_vld(torn: bool) -> str:
    vld = VirtualLogDisk(Disk(ST19101, num_cylinders=12))
    wal = NVWal(vld)
    expected = {}
    for i, lba in enumerate((3, 4, 5, 60, 3, 200)):
        expected[lba] = _blk(lba * 7 + i)
        wal.write_block(lba, expected[lba])
    wal.destage_all()
    for i, lba in enumerate((4, 90, 91)):
        expected[lba] = _blk(lba * 3 + i)
        wal.write_block(lba, expected[lba])
    wal.trim(5)
    expected[5] = bytes(BS)
    if torn:
        FaultPlane(("nvm-record", 2), "torn").install(wal.nvm)
        wal.write_block(6, _blk(6))
        with pytest.raises(DeviceCrashed):
            wal.write_block(60, _blk(61))
        expected[6] = _blk(6)
        wal.nvm.faults = None
    wal.crash()
    outcome = wal.recover()
    assert outcome.torn_tail is torn
    _read_back(wal, expected)
    return _digest(
        _outcome(outcome),
        wal.clock.now.hex(),
        wal.nvm.stats(),
        _vld_state(vld),
    )


def _nvwal_volume() -> str:
    volume, _devices, _disks = build_sharded_volume(3, num_cylinders=4)
    wal = NVWal(volume)
    expected = {}
    for i, lba in enumerate(range(0, 60, 5)):
        expected[lba] = _blk(lba + i)
        wal.write_block(lba, expected[lba])
    wal.idle(0.05)
    for i, lba in enumerate((2, 17, 33, 0)):
        expected[lba] = _blk(lba * 5 + i)
        wal.write_block(lba, expected[lba])
    wal.power_down()
    wal.crash()
    outcome = wal.recover()
    assert len(outcome.inner.parts) == 3
    _read_back(wal, expected)
    return _digest(
        _outcome(outcome),
        wal.clock.now.hex(),
        wal.nvm.stats(),
        [_vld_state(shard) for shard in volume.shards],
    )


def _recover_shard() -> str:
    volume, _devices, _disks = build_sharded_volume(3, num_cylinders=4)
    expected = {}
    for i, lba in enumerate(range(0, 48, 3)):
        expected[lba] = _blk(lba + i)
        volume.write_block(lba, expected[lba])
    volume.crash_shard(1)
    outcome = volume.recover_shard(1)
    _read_back(volume, expected)
    return _digest(
        _outcome(outcome),
        volume.clock.now.hex(),
        [_vld_state(shard) for shard in volume.shards],
    )


_CASES = {
    "vld-record": lambda: _vld(power_down=True),
    "vld-scan": lambda: _vld(power_down=False),
    "vld-reconstruct": _vld_reconstruct,
    "vlfs-record": lambda: _vlfs(power_down=True),
    "vlfs-scan": lambda: _vlfs(power_down=False),
    "nvwal-vld-clean": lambda: _nvwal_vld(torn=False),
    "nvwal-vld-torn": lambda: _nvwal_vld(torn=True),
    "nvwal-volume-x3": _nvwal_volume,
    "volume-recover-shard": _recover_shard,
}


@pytest.mark.parametrize("case", sorted(_GOLDEN_RECOVERY_SHA256))
def test_recovery_is_pinned(case):
    assert _CASES[case]() == _GOLDEN_RECOVERY_SHA256[case]


# ----------------------------------------------------------------------
# Recoveries through unreadable media
# ----------------------------------------------------------------------
#
# Which runs stay dead during a recovery, and in which order, decides
# the conservative quarantine, the suspects queue and the quarantine
# record the recovery persists.  Each case hashes every outcome field
# (``conservatively_quarantined`` among them), the clock, the rebuilt
# map, the free-map masks, the quarantine table and the suspects in
# order.  The flaky-tail cases also hash which acknowledged blocks read
# back wrong afterwards.

#: sha256 per case, recorded under PYTHONHASHSEED 0, 1 and random;
#: ``dead-quarantine-record``, ``dead-sector-scan`` and
#: ``flaky-tail-scan-s4``/``-s28``/``-s45`` re-recorded on purpose when
#: recovery began re-reading the slots its scan zero-filled (the three
#: flaky tails now recover their youngest record).
_GOLDEN_MEDIA_FAULT_SHA256 = {
    "dead-quarantine-record": (
        "39d0d759bae92fc5368165da3a5a609eb0c103fe0a513e24a999c752de3e5e0a"
    ),
    "dead-sector-scan": (
        "1dd0d39bf18262aabb451a63be4082f486dd582dc008463a00766f09b08ce50e"
    ),
    "flaky-tail-power-down-s30": (
        "ef89bca52d37e48222a9b902d4b3eebda428c6d81e5f42912ee0604c4602ca15"
    ),
    "flaky-tail-power-down-s31": (
        "9054fbf6dffbc1f2ea0215e41e37609a80141dbfc92b22fe5822bfa6cee3c497"
    ),
    "flaky-tail-power-down-s39": (
        "27a2ec5e1d55dbe50e487dbb311fff0f30cb7adfe6a9daa2848e840760a478ab"
    ),
    "flaky-tail-power-down-s49": (
        "5e9d6b84b199f4af65796ff5b8d8212739d1cc6bef9187c690e1ea2f764c8d35"
    ),
    "flaky-tail-power-down-s79": (
        "0378ee3dfe9387a2f0189195cd01c132fb0cc87c87a846cd41acfe15001678df"
    ),
    "flaky-tail-scan-s11": (
        "e52218498e5cf1587f249c9b98d1ff8a1aba2e3c8970774abd7b7b07984d6746"
    ),
    "flaky-tail-scan-s18": (
        "1feb488861e6951f30f8be620aaaff7e5c082c613db12cfc356e0c6d85a7c863"
    ),
    "flaky-tail-scan-s28": (
        "5ddd449f3f6709a9ef97458895d4c0d41aebb0d2de8451ef6bef107999df2dd2"
    ),
    "flaky-tail-scan-s29": (
        "eeb98b8b8b58bd9915936145e762dedefbbdac53bf19ffaaf8beb14785484e38"
    ),
    "flaky-tail-scan-s30": (
        "c9f6a59aa7182031ebac0813e0d8d954f71dbf74e74c10916827e4dda5a0cd81"
    ),
    "flaky-tail-scan-s4": (
        "8546093336209d475909ff51988a0039213f72a4ffae5412857c4830e90040d3"
    ),
    "flaky-tail-scan-s45": (
        "5a867fb3351150cbd21aa36164237d5c6356a56db5ea3ff489e83103c9279bfe"
    ),
    "flaky-tail-scan-s7": (
        "82e594851bf27b80ec52250c917be252872031effd8578d57dfce0ceb6eecb65"
    ),
}


def _faulted_state(vld, outcome) -> tuple:
    return (
        _outcome(outcome),
        vld.clock.now.hex(),
        _vld_state(vld),
        list(vld.resilience.suspects),
    )


def _flaky_tail(seed: int, power_down: bool) -> str:
    vld, outcome, acked = _flaky_tail_recovery(seed, power_down)
    state = _faulted_state(vld, outcome)
    return _digest(state, _lost(vld, acked))


def _dead_quarantine_record() -> str:
    # TestDeadQuarantineRecord's history: the sector holding the
    # quarantine table's record dies before the crash.
    disk = Disk(ST19101, num_cylinders=2)
    vld = VirtualLogDisk(disk)
    for lba in range(10):
        vld.write_block(lba, bytes([lba % 251]) * BS)
    vld.resilience.quarantine_sector(disk.total_sectors - 5)
    vld.resilience.persist_quarantine()
    block = vld.vlog.location_of(QUARANTINE_CHUNK_BASE)
    record_sector = block * vld.vlog.sectors_per_block
    FaultPlane(bad_sectors={record_sector}, seed=3).install(disk)
    vld.crash()
    outcome = vld.recover()
    assert outcome.scanned and outcome.conservatively_quarantined >= 1
    return _digest(_faulted_state(vld, outcome))


def _dead_sector_scan() -> str:
    # The tail's map sector fails its checksum: the scan's read of its
    # track fails and is re-driven record by record.
    disk = Disk(ST19101, num_cylinders=2)
    vld = VirtualLogDisk(disk)
    for lba in range(8):
        vld.write_block(lba, bytes([lba % 251]) * BS)
    silently_corrupt(disk, vld.vlog.tail * vld.vlog.sectors_per_block)
    vld.crash()
    outcome = vld.recover()
    assert outcome.scanned and outcome.degraded
    return _digest(_faulted_state(vld, outcome))


_MEDIA_FAULT_CASES = {
    **{
        f"flaky-tail-scan-s{seed}": functools.partial(_flaky_tail, seed, False)
        for seed in sorted(RAISED_AFTER_SCAN + SCAN_LOST_THE_TAIL)
    },
    **{
        f"flaky-tail-power-down-s{seed}": functools.partial(
            _flaky_tail, seed, True
        )
        for seed in RAISED_AFTER_POWER_DOWN
    },
    "dead-quarantine-record": _dead_quarantine_record,
    "dead-sector-scan": _dead_sector_scan,
}


@pytest.mark.parametrize("case", sorted(_MEDIA_FAULT_CASES))
def test_media_fault_recovery_is_pinned(case):
    assert _MEDIA_FAULT_CASES[case]() == _GOLDEN_MEDIA_FAULT_SHA256[case]
