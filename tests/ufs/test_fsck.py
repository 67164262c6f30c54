"""fsck: clean file systems pass; injected corruption is caught."""

import random
import struct

import pytest

from repro.fs.api import CorruptDirectory
from repro.sim.stats import Breakdown
from repro.ufs.fsck import FsckReport, _check_bitmaps, fsck


def populate(fs, seed=1, files=30):
    rng = random.Random(seed)
    fs.mkdir("/dir")
    fs.mkdir("/dir/sub")
    for i in range(files):
        parent = rng.choice(["", "/dir", "/dir/sub"])
        name = f"{parent}/f{i:03d}"
        fs.create(name)
        fs.write(name, 0, bytes([i % 251]) * rng.randrange(100, 20000))
    # One big file with indirect blocks.
    fs.create("/big")
    fs.write("/big", 0, bytes(4096) * 300)
    fs.sync()


class TestCleanFilesystems:
    def test_fresh_fs_is_clean(self, ufs):
        report = fsck(ufs)
        assert report.ok, report.errors
        assert report.inodes_checked == 1  # just the root

    def test_populated_fs_is_clean(self, ufs):
        populate(ufs)
        report = fsck(ufs)
        assert report.ok, report.errors
        assert report.files == 31
        assert report.directories == 3  # root + 2
        assert report.blocks_claimed > 300

    def test_clean_after_churn(self, ufs):
        populate(ufs)
        rng = random.Random(2)
        names = [f"/dir/f{i:03d}" for i in range(60, 80)]
        for name in names:
            ufs.create(name)
            ufs.write(name, 0, bytes(2000))
        for name in rng.sample(names, 10):
            ufs.unlink(name)
        ufs.write("/big", 100 * 4096, bytes(4096) * 50)  # grow
        ufs.sync()
        report = fsck(ufs)
        assert report.ok, report.errors

    def test_clean_on_vld(self, ufs_vld):
        populate(ufs_vld, files=15)
        report = fsck(ufs_vld)
        assert report.ok, report.errors

    def test_summary_readable(self, ufs):
        populate(ufs, files=3)
        text = fsck(ufs).summary()
        assert "clean" in text
        assert "inodes" in text


class TestCorruptionDetection:
    def test_orphan_inode(self, ufs):
        populate(ufs, files=5)
        # Allocate an inode behind the file system's back.
        ufs.alloc.groups[0].inodes.set(50)
        from repro.fs.inode import FileType, Inode

        ufs._write_inode(
            50, Inode(itype=FileType.REGULAR, nlink=1), sync=False,
            breakdown=Breakdown(),
        )
        report = fsck(ufs)
        assert any("orphan" in e for e in report.errors)

    def test_entry_to_unallocated_inode(self, ufs):
        populate(ufs, files=5)
        inum = ufs.stat("/f000").inum
        ufs.alloc.free_inode(inum)  # bitmap says free; entry remains
        report = fsck(ufs)
        assert any("unallocated inode" in e for e in report.errors)

    def test_double_claimed_block(self, ufs):
        populate(ufs, files=5)
        a = ufs.stat("/big").inum
        b = ufs.stat("/f001").inum
        inode_a = ufs._read_inode(a, Breakdown())
        inode_b = ufs._read_inode(b, Breakdown())
        # Point b's first block at a's first block.
        inode_b.direct[0] = inode_a.direct[0]
        inode_b.size = 4096 * 2  # force full-block layout
        ufs._write_inode(b, inode_b, sync=False, breakdown=Breakdown())
        report = fsck(ufs)
        assert any("claimed by both" in e for e in report.errors)

    def test_leaked_fragments(self, ufs):
        populate(ufs, files=5)
        ufs.alloc.alloc_frags(2, goal_lba=0)  # allocate and forget
        report = fsck(ufs)
        assert any("leak" in e for e in report.errors)

    def test_block_marked_free_while_in_use(self, ufs):
        populate(ufs, files=5)
        inum = ufs.stat("/big").inum
        inode = ufs._read_inode(inum, Breakdown())
        ufs.alloc.free_block(inode.direct[0])
        report = fsck(ufs)
        assert any("free in the bitmap" in e for e in report.errors)

    def test_free_inode_with_dir_entry_and_bitmap_set(self, ufs):
        populate(ufs, files=5)
        inum = ufs.stat("/f002").inum
        from repro.fs.inode import Inode

        ufs._write_inode(inum, Inode(), sync=False, breakdown=Breakdown())
        report = fsck(ufs)
        assert any("marked free" in e for e in report.errors)

    def test_wrong_link_count(self, ufs):
        populate(ufs, files=5)
        inum = ufs.stat("/dir").inum
        inode = ufs._read_inode(inum, Breakdown())
        assert inode.nlink == 3  # ".", its entry in "/", "/dir/sub"'s ".."
        inode.nlink = 2
        ufs._write_inode(inum, inode, sync=False, breakdown=Breakdown())
        report = fsck(ufs)
        assert report.errors == [f"inode {inum}: link count 2, 3 expected"]

    def test_bad_tail_fragment_count(self, ufs):
        ufs.create("/small")
        ufs.write("/small", 0, b"x" * 1024)
        ufs.sync()
        inum = ufs.stat("/small").inum
        inode = ufs._read_inode(inum, Breakdown())
        addr, _count = inode.tail_frags()
        inode.set_tail_frags(addr, 3)  # size implies 1
        ufs._write_inode(inum, inode, sync=False, breakdown=Breakdown())
        report = fsck(ufs)
        assert any("tail has 3 frags" in e for e in report.errors)


def _reference_check_bitmaps(fs, claimed_frags):
    """Phase 3 as it was before the bitmaps became integers: one
    ``test()`` per fragment of every group, two messages."""
    errors = []
    layout = fs.layout
    fpb = layout.frags_per_block
    for group_index, group in enumerate(fs.alloc.groups):
        start = layout.group_start(group_index)
        for bit in range(layout.sb.blocks_per_group * fpb):
            frag = start * fpb + bit
            in_metadata = frag // fpb < layout.data_start(group_index)
            marked = group.frags.test(bit)
            claimed = frag in claimed_frags or in_metadata
            if claimed and not marked:
                errors.append(f"fragment {frag} in use but free in the bitmap")
            elif marked and not claimed:
                errors.append(
                    f"fragment {frag} marked used but unclaimed (leak)"
                )
    return errors


class TestBitmapPhaseMatchesThePerBitLoop:
    def _compare(self, fs, claimed):
        report = FsckReport()
        _check_bitmaps(fs, claimed, report)
        assert report.errors == _reference_check_bitmaps(fs, claimed)
        return report.errors

    def _claims(self, fs):
        """The claimed-fragment table of a clean image: every bit the
        bitmaps mark outside the metadata areas."""
        layout = fs.layout
        fpb = layout.frags_per_block
        claimed = {}
        for g, group in enumerate(fs.alloc.groups):
            base = layout.group_start(g) * fpb
            for bit in range(layout.meta_blocks_per_group * fpb,
                             layout.sb.blocks_per_group * fpb):
                if group.frags.test(bit):
                    claimed[base + bit] = 1
        return claimed

    def test_clean_image_has_nothing_to_say(self, ufs):
        populate(ufs, files=12)
        assert self._compare(ufs, self._claims(ufs)) == []

    def test_leaks_and_lost_blocks_same_messages_same_order(self, ufs):
        populate(ufs, files=12)
        claimed = self._claims(ufs)
        rng = random.Random(5)
        last = len(ufs.alloc.groups) - 1
        ufs.alloc.alloc_frags(3, goal_lba=0)  # a leak in group 0
        ufs.alloc.groups[last].frags.set_run(  # and at the very end
            ufs.alloc.groups[last].frags.nbits - 2, 2
        )
        for frag in rng.sample(sorted(claimed), 9):  # lost blocks
            del claimed[frag]
            lba = frag // ufs.layout.frags_per_block
            group = ufs.layout.group_of_block(lba)
            base = ufs.layout.group_start(group) * ufs.layout.frags_per_block
            if rng.random() < 0.5:  # ... some of them freed as well
                ufs.alloc.groups[group].frags.clear(frag - base)
                claimed[frag] = 1
        ufs.alloc.groups[1].frags.clear_run(0, 4)  # metadata marked free
        # Claims no group covers (a corrupt tail-fragment address) are
        # nobody's bit, as before.
        claimed[0] = claimed[10**9] = 1
        errors = self._compare(ufs, claimed)
        assert any("leak" in e for e in errors)
        assert any("free in the bitmap" in e for e in errors)


class TestCorruptDirectoryBlocks:
    """A directory block that does not parse is a finding: fsck names
    the directory inode and the block and carries on; the file system's
    own lookups hand the error to the caller."""

    CORRUPT = {
        "overrun": struct.pack("<IH", 7, 300) + b"abc",
        "not-utf8": struct.pack("<IH", 7, 2) + b"\xff\xfe",
        "slash": struct.pack("<IH", 7, 3) + b"a/b",
    }

    def _corrupt(self, ufs, path, payload):
        inode = ufs._read_inode(ufs.stat(path).inum, Breakdown())
        lba = inode.direct[0]
        ufs.cache.write(lba, payload + bytes(4096 - len(payload)), sync=False)
        return ufs.stat(path).inum, lba

    def test_fsck_complains_and_carries_on(self, ufs):
        for kind in self.CORRUPT:
            ufs.mkdir(f"/d-{kind}")
            ufs.create(f"/d-{kind}/victim")
        ufs.mkdir("/healthy")
        ufs.create("/healthy/file")
        ufs.sync()
        assert fsck(ufs).ok
        where = {
            kind: self._corrupt(ufs, f"/d-{kind}", payload)
            for kind, payload in self.CORRUPT.items()
        }
        report = fsck(ufs)
        for kind, (inum, lba) in where.items():
            assert any(
                f"directory inode {inum}" in e and f"block {lba}" in e
                for e in report.errors
            ), (kind, report.errors)
        # It carried on: the healthy subtree was walked (its file is not
        # an orphan), and each file only the corrupt blocks named is.
        orphans = [e for e in report.errors if "orphan" in e]
        assert len(orphans) == len(self.CORRUPT)
        healthy = ufs.stat("/healthy/file").inum
        assert not any(f"inode {healthy} " in e for e in orphans)
        # The file system's own paths let the error through unchanged.
        for kind in self.CORRUPT:
            with pytest.raises(CorruptDirectory):
                ufs.stat(f"/d-{kind}/victim")
            with pytest.raises(CorruptDirectory):
                ufs.create(f"/d-{kind}/new")


class TestDoubleIndirectFilesAreFreedWhole:
    """Freeing a file past 12 + 1 024 blocks gives back its level-1
    indirect blocks too, even when the double-indirect table naming them
    was never written out (``_free_file_storage`` used to invalidate that
    table and *then* read the level-1 pointers through it: zeros from the
    device, and the level-1 blocks stayed allocated for ever)."""

    BLOCKS = 12 + 1024 + 40

    def _big_file(self, ufs):
        ufs.create("/big")
        chunk = bytes(4096) * 64
        for lo in range(0, self.BLOCKS * 4096, len(chunk)):
            size = min(len(chunk), self.BLOCKS * 4096 - lo)
            ufs.write("/big", lo, chunk[:size])  # asynchronous: no sync
        assert ufs.stat("/big").blocks == self.BLOCKS
        report = fsck(ufs)
        assert report.ok, report.errors

    @pytest.mark.parametrize("how", ["unlink", "truncate"])
    def test_no_level1_block_leaks(self, ufs, how):
        fpb = ufs.layout.frags_per_block
        frags_before, inodes_before = ufs.alloc.free_space()
        self._big_file(ufs)
        if how == "unlink":
            ufs.unlink("/big")
        else:
            ufs.truncate("/big", 0)
            inodes_before -= 1
        report = fsck(ufs)
        assert report.ok, report.errors
        # Only the root directory's one block is still in use.
        assert ufs.alloc.free_space() == (frags_before - fpb, inodes_before)
        ufs.sync()
        assert fsck(ufs).ok
