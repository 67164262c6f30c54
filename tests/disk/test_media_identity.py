"""Media images, pinned against recorded values.

Each script drives a seeded mix through a real stack and hashes what the
media hold: every image's written pages (``MediaImage._written_runs``)
and the checksum sidecar's ``(sector, crc)`` pairs.  The digests were
recorded before ``MediaImage.store`` learnt to leave zero pages
unmapped, so they must never be edited to follow a memory change: a
different digest means a byte on the media moved.

The scripts: the performance ledger's ``fs_small_files`` shape (a
zero-filled target laid down at full size, small files created, synced,
read and unlinked, random non-zero block updates to the target) on a
UFS over a VLD and an LFS over a regular disk, and an NVWal over a VLD
taking zero and non-zero blocks through an orderly power-down, a crash
and its recovery.
"""

import hashlib
import random

import pytest

from repro.disk.disk import Disk
from repro.disk.specs import ST19101
from repro.harness.configs import STACKS, build_stack
from repro.nvm.wal import NVWal
from repro.vlog.vld import VirtualLogDisk
from repro.workloads.random_update import prepare_file

BLOCK = 4096


def _digest(*parts) -> str:
    """sha256 over each image's written runs and each checksum store."""
    h = hashlib.sha256()
    for part in parts:
        if part is None:
            h.update(b"none")
        elif hasattr(part, "_written_runs"):
            for offset, data in part._written_runs():
                h.update(f"run {offset} {len(data)}".encode())
                h.update(data)
        else:
            for sector, crc in part.items():
                h.update(f"{sector}:{crc};".encode())
        h.update(b"|")
    return h.hexdigest()


def _small_files(stack: str, seed: int) -> str:
    rng = random.Random(seed)
    fs, disk, _device = build_stack(STACKS[stack])
    target_bytes = 2 << 20
    prepare_file(fs, "/target", target_bytes)
    names = [f"/small{i:03d}" for i in range(40)]
    fill = {name: rng.randrange(256) for name in names}
    for name in names:
        fs.create(name)
        fs.write(name, 0, bytes([fill[name]]) * 1024)
    fs.sync()
    for name in names:
        data, _ = fs.read(name, 0, 1024)
        assert data == bytes([fill[name]]) * 1024
    for name in names[::2]:
        fs.unlink(name)
    for _ in range(150):
        block = rng.randrange(target_bytes // BLOCK)
        # One update in four writes a zero page over the zero fill.
        x = rng.choice((0, rng.randrange(1, 256)))
        fs.write("/target", block * BLOCK, bytes([x]) * BLOCK, sync=True)
    fs.sync()
    return _digest(disk._data, disk.checksums)


def _nvwal_over_vld(seed: int) -> str:
    rng = random.Random(seed)
    vld = VirtualLogDisk(Disk(ST19101))
    wal = NVWal(vld)
    span = 600
    for round_ in range(3):
        for _ in range(250):
            x = rng.choice((0, 0, rng.randrange(1, 256)))
            wal.write_block(rng.randrange(span), bytes([x]) * BLOCK)
        if round_ == 1:
            wal.power_down()
        wal.crash()
        wal.recover()
    return _digest(wal.nvm._image, vld.disk._data, vld.disk.checksums)


#: script -> sha256 of its media, recorded before the zero-page rule.
PINNED = {
    "lfs-regular-11": "0273e2a946b31b2d5c4e3a7be1215568dbfcbb1eef597bfe558acb766280ab7a",
    "lfs-regular-23": "ee5927bc78d130c38d42f05c677c4971e16488f8ea054be44b6f99defbd802cb",
    "nvwal-vld-11": "086435cdc8e1c961a2665b755dc7feee41abda6ec988212b38a979f90e012288",
    "ufs-vld-11": "cd2cc283166393831d7963b548b69fdb5fc165b65e83ae717006421b52f20ea6",
    "ufs-vld-23": "f9ba7418ed85f2148584330b22cdcc8fd1545154d41b1a22c225c7dc6e93695c",
}

SCRIPTS = {
    "ufs-vld-11": lambda: _small_files("ufs-vld", 11),
    "ufs-vld-23": lambda: _small_files("ufs-vld", 23),
    "lfs-regular-11": lambda: _small_files("lfs-regular", 11),
    "lfs-regular-23": lambda: _small_files("lfs-regular", 23),
    "nvwal-vld-11": lambda: _nvwal_over_vld(11),
}


@pytest.mark.parametrize("name", sorted(SCRIPTS))
def test_media_digest_is_pinned(name):
    assert SCRIPTS[name]() == PINNED[name]
