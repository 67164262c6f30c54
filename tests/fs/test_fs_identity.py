"""The file-system twin of ``test_placement_sequence_is_pinned``.

One seeded run per stack in the shape of the ledger's ``fs_small_files``
(reduced scale, but with a root directory that spans three blocks): every
call's simulated clock reading and latency breakdown, the final disk
counters, the cache and cleaner counters and the root listing go into a
sha256 per stack, first recorded before the file-system in-memory
indexes landed (DESIGN.md section 17).  A directory-parse cache, an
integer bitmap or a counted file cache may change host time only: one
read issued in a different order, one block placed elsewhere or one
different eviction victim moves a clock reading and fails this test.
"""

from __future__ import annotations

import random

import pytest

from repro.disk.disk import Disk
from repro.disk.specs import ST19101
from repro.harness.configs import STACKS, build_stack
from repro.hosts.specs import SPARCSTATION_10
from repro.lfs.lfs import LFS
from repro.ufs.ufs import UFS
from repro.vlfs.vlfs import VLFS
from tests._media import op_counts
from tests._pins import running_pin

BLOCK = 4096
FILES = 620
SUBDIR_FILES = 40
FILE_BYTES = 1024
TARGET = "/target"
TARGET_BLOCKS = 2048  # 8 MB: larger than the 6.1 MB LFS file cache
UPDATES = 200

#: sha256 per stack, recorded under PYTHONHASHSEED 0, 1 and random.  Three
#: were re-recorded on purpose: ``ufs-regular`` and ``ufs-vld`` when a
#: directory moved to another parent began to carry its link (``rename``
#: reads the moved inode), ``ufs-vld`` and ``lfs-vld`` when the remount
#: became ``crash()`` + ``recover()`` with the VLD's own recovery beneath;
#: ``ufs-vld``, ``lfs-vld`` and ``vlfs`` again when recovery stopped
#: expanding superseded map records, and again when its tree walk began
#: taking the scan's records and reading children in access-time order;
#: ``lfs-vld`` when an LFS crash began dropping the segment writer's
#: staged blocks.
_GOLDEN_FS_SHA256 = {
    "ufs-regular": (
        "66eeb5006e307015abc225112d39bdb7e26d751c67a8c8b38949fef3160db365"
    ),
    "ufs-vld": (
        "a2d9528b44530e4e41d7cdd4ee6fea19991015abba3300d97c83a1e6d7ecc4e0"
    ),
    "lfs-regular": (
        "3b1bc0b71f7dac1526273e9952e12ef4a32a95cb3193ae62f5f2c57b852a243f"
    ),
    "lfs-vld": (
        "a82d72cfe3df70342b1986b65cba585439ae40df60307bd0983473424ce63941"
    ),
    "vlfs": (
        "ee36b87f945a4e1f21135715bceda79a61a8ef6eb52468ca9908b92677543802"
    ),
}


def _page(x: int, nbytes: int = BLOCK) -> bytes:
    return bytes([x]) * nbytes


def _build(stack: str):
    if stack == "vlfs":
        disk = Disk(ST19101)
        return VLFS(disk, SPARCSTATION_10), disk
    fs, disk, _device = build_stack(STACKS[stack])
    return fs, disk


class _Recorder:
    """Runs file-system calls and folds what each cost into a digest."""

    def __init__(self, fs) -> None:
        self.fs = fs
        self.digest = running_pin()

    def note(self, op: str, breakdown=None) -> None:
        parts = [op, self.fs.clock.now.hex()]
        if breakdown is not None:
            parts.extend(v.hex() for v in breakdown.as_dict().values())
        self.digest.update((" ".join(parts) + "\n").encode())

    def call(self, op: str, *args, **kwargs):
        result = getattr(self.fs, op)(*args, **kwargs)
        if op == "read":
            data, breakdown = result
            self.note(op, breakdown)
            return data
        self.note(op, result)
        return result


def _run(stack: str) -> str:
    rng = random.Random(29)
    fs, disk = _build(stack)
    rec = _Recorder(fs)
    call = rec.call

    # -- the update target, as prepare_file() lays it down ---------------
    call("create", TARGET)
    chunk = bytes(BLOCK) * 64
    for lo in range(0, TARGET_BLOCKS, 64):
        call("write", TARGET, lo * BLOCK, chunk)
    call("sync")
    call("drop_caches")
    target = {}

    # -- small files: a three-block root directory and a subdirectory ----
    names = [f"/small{i:05d}" for i in range(FILES)]
    names[7::97] = [f"/pétit-{i:03d}-文" for i in range(len(names[7::97]))]
    call("mkdir", "/sub")
    names += [f"/sub/inner{i:03d}" for i in range(SUBDIR_FILES)]
    fill = {name: rng.randrange(256) for name in names}
    for name in names:
        call("create", name)
        call("write", name, 0, _page(fill[name], FILE_BYTES))
    assert fs.stat("/").size >= 3 * BLOCK
    call("sync")
    call("drop_caches")
    order = list(names)
    rng.shuffle(order)
    for name in order:
        assert call("read", name, 0, FILE_BYTES) == _page(
            fill[name], FILE_BYTES
        ), name

    # -- one file grown through tail fragments into full blocks ----------
    call("create", "/grow")
    grown = b""
    for x, size in enumerate(
        (1000, 2500, 4096, BLOCK + 500, 3 * BLOCK + 3000, 14 * BLOCK + 100)
    ):
        piece = _page(200 + x, size - len(grown))
        call("write", "/grow", len(grown), piece)
        grown += piece
        assert call("read", "/grow", 0, size) == grown, size
    call("create", "/shrink")
    call("write", "/shrink", 0, _page(99, 5 * BLOCK + 300))
    call("truncate", "/shrink", BLOCK + 300)
    assert call("read", "/shrink", 0, 2 * BLOCK) == _page(99, BLOCK + 300)
    call("unlink", "/shrink")

    # -- delete half in random order, re-fill the holes, delete most -----
    rng.shuffle(order)
    gone = order[: len(order) // 2]
    for name in gone:
        call("unlink", name)
    for name in gone[::3]:
        call("create", name)
        call("write", name, 0, _page(fill[name] ^ 0xFF, FILE_BYTES))
        fill[name] ^= 0xFF
    kept = set(order[len(order) // 2 :]) | set(gone[::3])
    survivors = set(sorted(kept)[::9])
    for name in sorted(kept - survivors, key=lambda n: (fill[n], n)):
        call("unlink", name)
    moved = sorted(survivors)[:2]
    for name, new in zip(moved, ("/renamed", "/sub/moved-in")):
        call("rename", name, new)
        fill[new] = fill.pop(name)
    survivors = survivors - set(moved) | {"/renamed", "/sub/moved-in"}

    # -- random synchronous updates over a cache filled past capacity ----
    # (the sequential pass evicts in LRU order; the interleaved reads
    # make each later victim decide a disk read; LFS runs its cleaner)
    for lo in range(0, TARGET_BLOCKS, 64):
        assert call("read", TARGET, lo * BLOCK, 64 * BLOCK) == chunk
    for i in range(UPDATES):
        block, x = rng.randrange(TARGET_BLOCKS), rng.randrange(256)
        call("write", TARGET, block * BLOCK, _page(x), sync=True)
        target[block] = x
        if i % 4 == 3:
            block = rng.randrange(TARGET_BLOCKS)
            assert call("read", TARGET, block * BLOCK, BLOCK) == _page(
                target.get(block, 0)
            ), block
    call("idle", 0.25)

    # -- power loss, and the way back: crash() + recover() ----------------
    call("sync")
    caches = [fs.cache] if isinstance(fs, UFS) else []
    fs.crash()
    outcome = fs.recover()
    if isinstance(fs, LFS):
        rec.note("recover" if isinstance(fs, VLFS) else "mount", outcome.breakdown)
    for name in sorted(survivors):
        assert call("read", name, 0, FILE_BYTES) == _page(
            fill[name], FILE_BYTES
        ), name
    for block in sorted(target)[::4]:
        assert call("read", TARGET, block * BLOCK, BLOCK) == _page(
            target[block]
        ), block
    assert call("read", "/grow", 0, len(grown)) == grown

    # -- what the run leaves behind --------------------------------------
    counters = op_counts(disk)
    counters["busy_time"] = counters["busy_time"].hex()
    tail = [sorted(counters.items()), fs.listdir("/"), fs.listdir("/sub")]
    if isinstance(fs, VLFS):
        tail.append((0, 0))  # eager writing: no cleaner to count
        tail.append((fs.cache.hits, fs.cache.misses))
    elif isinstance(fs, LFS):
        assert fs.cleaner.segments_cleaned > 0
        tail.append((fs.cleaner.segments_cleaned, fs.cleaner.blocks_copied))
        tail.append((fs.cache.hits, fs.cache.misses))
    else:
        caches.append(fs.cache)
        tail.append([(cache.hits, cache.misses) for cache in caches])
    rec.digest.update(repr(tail).encode())
    return rec.digest.hexdigest()


@pytest.mark.parametrize("stack", sorted(_GOLDEN_FS_SHA256))
def test_fs_call_sequence_is_pinned(stack):
    assert _run(stack) == _GOLDEN_FS_SHA256[stack]
