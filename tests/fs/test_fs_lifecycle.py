"""A file system comes back the way a device does.

``FileSystem`` declares the device contract's lifecycle one layer up --
``power_down()``, ``crash()`` and ``recover() -> RecoveryOutcome`` -- under
its rule: crash goes down, recover comes up.  One suite runs every stack
of ``configs.STACKS``, VLFS and a UFS over an NVM write-ahead tier, each
bare and (all but VLFS, whose device is its own disk) under
``TracingDevice(MetricsDevice(FaultDevice(., FaultPlan())))``, and checks:

* what ``sync()``, ``fsync()`` and ``write(sync=True)`` made durable reads
  back byte-exact after ``crash(); recover()``, and after
  ``power_down(); crash(); recover()``;
* ``recover()`` returns a ``RecoveryOutcome`` whose ``parts`` hold the
  device's own outcome;
* a second ``crash(); recover()`` changes no file's bytes;
* UFS is fsck-clean after a crash that followed ``sync()``.
"""

from __future__ import annotations

import pytest

from repro.blockdev.interpose import (
    FaultDevice,
    FaultPlan,
    MetricsDevice,
    TracingDevice,
    build_device_stack,
)
from repro.disk.disk import Disk
from repro.disk.specs import ST19101
from repro.harness.configs import STACKS, StackConfig
from repro.hosts.specs import SPARCSTATION_10
from repro.lfs.lfs import LFS
from repro.ufs.fsck import fsck
from repro.ufs.ufs import UFS
from repro.vlfs.vlfs import VLFS
from repro.vlog.recovery import RecoveryOutcome

BS = 4096

#: The harness's stacks plus one with an NVM write-ahead tier.
CONFIGS = {
    **STACKS,
    "ufs-nvm-vld": StackConfig("ufs-nvm-vld", "ufs", "vld", nvm=True),
}

CASES = [
    pytest.param(
        (name, wrapped), id=f"{name}-{'wrapped' if wrapped else 'bare'}"
    )
    for name in sorted(CONFIGS)
    for wrapped in (False, True)
] + [pytest.param(("vlfs", False), id="vlfs-bare")]


def _build(name: str, wrapped: bool):
    if name == "vlfs":
        return VLFS(Disk(ST19101), SPARCSTATION_10)
    config = CONFIGS[name]
    device = build_device_stack(
        Disk(ST19101), config.device_type, nvm=config.nvm
    )
    if wrapped:
        device = TracingDevice(MetricsDevice(FaultDevice(device, FaultPlan())))
    fs_type = UFS if config.fs_type == "ufs" else LFS
    return fs_type(device, SPARCSTATION_10)


def _has_log(name: str) -> bool:
    """Whether recovery has a virtual log to rebuild; a regular disk's
    outcome is the empty fold."""
    return name == "vlfs" or CONFIGS[name].device_type == "vld"


def _bytes(tag: int, size: int) -> bytes:
    return bytes((tag + i) % 251 + 1 for i in range(size))


#: path -> contents once :func:`_make_durable` has run: whole blocks,
#: tails held in fragments (UFS), and a file past the direct pointers.
DURABLE = {
    "/d/synced": _bytes(1, 3 * BS + 700),
    "/d/e/grown": _bytes(2, 14 * BS),
    "/fsynced": _bytes(3, 2 * BS + 700),
    "/d/o_sync": _bytes(4, BS + 1000),
}


def _make_durable(fs) -> None:
    """The namespace and two files reach stable storage by ``sync()``,
    then one file by ``fsync()`` and one by ``write(sync=True)``."""
    fs.mkdir("/d")
    fs.mkdir("/d/e")
    for path in DURABLE:
        fs.create(path)
    for path in ("/d/synced", "/d/e/grown"):
        fs.write(path, 0, DURABLE[path])
    fs.sync()
    fs.write("/fsynced", 0, DURABLE["/fsynced"])
    fs.fsync("/fsynced")
    fs.write("/d/o_sync", 0, DURABLE["/d/o_sync"], sync=True)


def _contents(fs):
    """Every directory's listing and every file's bytes."""
    seen = {d: fs.listdir(d) for d in ("/", "/d", "/d/e")}
    for path in DURABLE:
        seen[path] = fs.read(path, 0, fs.stat(path).size)[0]
    return seen


@pytest.fixture(params=CASES)
def case(request):
    return request.param


@pytest.mark.parametrize("orderly", [False, True], ids=["crash", "power-down"])
def test_durable_state_survives_crash_and_recover(case, orderly):
    fs = _build(*case)
    _make_durable(fs)
    if orderly:
        fs.power_down()
    fs.crash()
    assert isinstance(fs.recover(), RecoveryOutcome)
    assert fs.listdir("/") == ["d", "fsynced"]
    assert fs.listdir("/d") == ["e", "o_sync", "synced"]
    for path, data in DURABLE.items():
        assert fs.read(path, 0, len(data) + BS)[0] == data, path


#: The log family's synchronous paths lose what lies past the direct
#: pointers: a known defect, kept visible here.
_LOG_FAMILY_LOSES_INDIRECT = pytest.mark.xfail(
    strict=True,
    reason="LFS._fsync_inum stages only the blocks that are dirty when it "
    "starts; the indirect block that staging them dirties stays in the "
    "volatile file cache, so after a crash the inode still names the old "
    "one.  Staging it costs one more write per synchronous update past "
    "block 12.  Figures 8-11 do not move at the quick scale, but the "
    "ledger's fs_small_files phys_bytes_per_user_byte does (+11.9 % at "
    "seed 11, past its 10 % bound), so the fix lands with the change "
    "that re-records the ledger (ROADMAP item 4(e)).",
)


@pytest.mark.parametrize(
    "case",
    [
        pytest.param(
            (name, False),
            id=name,
            marks=[] if name.startswith("ufs") else _LOG_FAMILY_LOSES_INDIRECT,
        )
        for name in sorted(CONFIGS) + ["vlfs"]
    ],
)
def test_sync_writes_past_the_direct_blocks_survive_a_crash(case):
    fs = _build(*case)
    fs.create("/f")
    fs.create("/g")
    fs.sync()
    f, g = _bytes(6, 20 * BS), _bytes(7, 14 * BS + 300)
    fs.write("/f", 0, f)
    fs.fsync("/f")
    fs.write("/g", 0, g, sync=True)
    fs.crash()
    fs.recover()
    assert fs.read("/f", 0, len(f))[0] == f
    assert fs.read("/g", 0, len(g))[0] == g


@pytest.mark.parametrize("orderly", [False, True], ids=["crash", "power-down"])
def test_recover_folds_the_devices_outcome(case, orderly, monkeypatch):
    name, _wrapped = case
    fs = _build(*case)
    _make_durable(fs)
    if orderly:
        fs.power_down()
    fs.crash()
    if name == "vlfs":
        # VLFS owns its disk and its virtual log: the outcome is the log's.
        device_outcome = fs.recover()
        assert device_outcome.parts == []
    else:
        seen = []
        recover = fs.device.recover

        def spy():
            seen.append(recover())
            return seen[-1]

        monkeypatch.setattr(fs.device, "recover", spy)
        outcome = fs.recover()
        assert len(seen) == 1 and outcome.parts == seen
        device_outcome = seen[0]
        assert outcome.elapsed > device_outcome.elapsed  # the mount's reads
    if _has_log(name):
        # An orderly stop leaves the power-down record; a crash, a scan.
        assert device_outcome.used_power_down_record == orderly
        assert device_outcome.scanned != orderly
    else:
        assert device_outcome.parts == [] and device_outcome.elapsed == 0.0


def test_a_second_crash_changes_no_file(case):
    fs = _build(*case)
    _make_durable(fs)
    fs.crash()
    fs.recover()
    first = _contents(fs)
    fs.crash()
    fs.recover()
    assert _contents(fs) == first


@pytest.mark.parametrize(
    "name", sorted(n for n in CONFIGS if CONFIGS[n].fs_type == "ufs")
)
def test_ufs_is_fsck_clean_after_a_crash_that_followed_sync(name):
    fs = _build(name, wrapped=False)
    _make_durable(fs)
    fs.unlink("/d/synced")
    fs.rename("/d/e", "/e")
    fs.sync()
    fs.crash()
    fs.recover()
    report = fsck(fs)
    assert report.ok, report.errors
    assert fs.listdir("/") == ["d", "e", "fsynced"]
    assert (fs.stat("/").nlink, fs.stat("/d").nlink) == (4, 2)
