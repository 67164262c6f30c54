"""Complexity tests that count, not time (DESIGN.md section 17).

The host cost of a file-system call should follow the work the simulated
file system does, not the size of its metadata.  These tests wrap the
expensive step in a counter and assert how often it runs; the sibling
counts for the file cache are in ``tests/lfs/test_filecache_differential.py``.
"""

from __future__ import annotations

import pytest

from repro.blockdev.regular import RegularDisk
from repro.disk.disk import Disk
from repro.disk.specs import ST19101
from repro.fs.dirfile import DirectoryBlock
from repro.hosts.specs import SPARCSTATION_10
from repro.lfs.inode_map import InodeMap
from repro.lfs.lfs import LFS
from repro.ufs.ufs import UFS
from repro.vlfs.vlfs import VLFS


def _build(kind: str):
    disk = Disk(ST19101)
    if kind == "vlfs":
        return VLFS(disk, SPARCSTATION_10)
    cls = {"ufs": UFS, "lfs": LFS}[kind]
    return cls(RegularDisk(disk), SPARCSTATION_10)


@pytest.fixture
def parses(monkeypatch):
    """Every block image handed to ``DirectoryBlock.unpack``, in order."""
    seen = []
    unpack = DirectoryBlock.unpack.__func__

    def counting(cls, raw):
        seen.append(bytes(raw))
        return unpack(cls, raw)

    monkeypatch.setattr(DirectoryBlock, "unpack", classmethod(counting))
    return seen


@pytest.mark.parametrize("kind", ["ufs", "lfs", "vlfs"])
@pytest.mark.parametrize("existing", [250, 1500])
def test_creates_parse_each_directory_block_once_per_content(
    kind, existing, parses
):
    fs = _build(kind)
    for i in range(existing):
        fs.create(f"/small{i:05d}")
    fs.sync()
    fs.drop_caches()  # every directory block must be read (and parsed) again
    blocks_before = -(-fs.stat("/").size // fs.block_size)
    assert blocks_before >= existing // 250
    del parses[:]
    for i in range(existing, existing + 50):
        fs.create(f"/small{i:05d}")
        fs.write(f"/small{i:05d}", 0, b"x" * 1024)
    blocks_after = -(-fs.stat("/").size // fs.block_size)
    # 100 calls that each walk the whole directory (a lookup that misses,
    # then the insertion): once per block, plus once per block the
    # directory grew by -- not once per call, and never the same bytes
    # twice.
    assert len(parses) == len(set(parses))
    assert len(parses) <= blocks_after + (blocks_after - blocks_before)
    assert fs.listdir("/") == sorted(
        f"small{i:05d}" for i in range(existing + 50)
    )
    assert len(parses) == len(set(parses))


@pytest.mark.parametrize("kind", ["ufs", "lfs"])
def test_unlinks_and_lookups_reuse_the_parse_too(kind, parses):
    fs = _build(kind)
    names = [f"/small{i:05d}" for i in range(300)]
    for name in names:
        fs.create(name)
    del parses[:]
    for name in names[::2]:
        fs.unlink(name)
    for name in names[1::2]:
        assert fs.exists(name)
    assert fs.listdir("/") == sorted(n[1:] for n in names[1::2])
    # Each removal edits the held parse and its image together, so the
    # next read of the block finds the parse still valid.
    assert len(parses) <= 2


def test_lfs_creates_do_not_rescan_the_live_inode_prefix(monkeypatch):
    lfs = _build("lfs")
    for i in range(500):  # a live prefix that is in the map only ...
        lfs.create(f"/old{i:03d}")
    lfs.sync()
    lfs.crash()
    lfs.recover()  # ... the in-memory inodes are gone
    probes = {"allocated": 0, "held": 0}
    allocated = InodeMap.allocated

    def counting_allocated(self, inum):
        probes["allocated"] += 1
        return allocated(self, inum)

    class CountingInodes(dict):
        def __contains__(self, inum):
            probes["held"] += 1
            return dict.__contains__(self, inum)

    monkeypatch.setattr(InodeMap, "allocated", counting_allocated)
    lfs._inodes = CountingInodes(lfs._inodes)
    before = lfs.imap._floor
    for i in range(500):
        lfs.create(f"/new{i:03d}")
    # 500 creates, each of which used to walk every live inode below the
    # one it found (~375 000 probes); the cursor walks the prefix once.
    assert probes["allocated"] + probes["held"] <= 4 * 500 + 502
    assert before == 1 and lfs.imap._floor > 1000
    inums = sorted(lfs.stat(f"/new{i:03d}").inum for i in range(500))
    assert inums == list(range(502, 1002))  # still the lowest unused


def test_inode_cursor_still_finds_the_lowest_after_frees_and_loads():
    lfs = _build("lfs")
    for i in range(40):
        lfs.create(f"/f{i:02d}")
    lfs.sync()
    for i in (30, 7, 19):
        lfs.unlink(f"/f{i:02d}")
    # 1 is the root, /f00 is 2: the lowest freed is /f07 = inum 9.
    for expect in (9, 21, 32, 42):
        lfs.create(f"/again{expect}")
        assert lfs.stat(f"/again{expect}").inum == expect
    # Unflushed inodes die in a crash; the map load resets the cursor.
    lfs.sync()
    for i in range(5):
        lfs.create(f"/lost{i}")
    lfs.crash()
    lfs.recover()
    lfs.create("/after")
    assert lfs.stat("/after").inum == 43

    imap = InodeMap(64)
    for inum in range(1, 20):
        imap.set(inum, 100 + inum, 0)
    assert imap.alloc_inum() == 20
    assert imap.lowest_unused({20, 21}) == 22
    imap.clear(5)
    assert imap.alloc_inum() == 5
    imap.load_slice(8, [0, 0])
    imap.set(5, 105, 0)
    assert imap.alloc_inum() == 8
    imap.load(InodeMap(64).pack())
    assert imap.alloc_inum() == 1
