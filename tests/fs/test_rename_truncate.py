"""rename/truncate semantics, uniform across UFS, LFS, and VLFS."""

import pytest

from repro.disk.disk import Disk
from repro.disk.specs import ST19101
from repro.fs.api import (
    FileExists,
    FileNotFound,
    FileSystemError,
    IsADirectory,
    NotADirectory,
)
from repro.fs.dirfile import DirectoryBlock
from repro.hosts.specs import SPARCSTATION_10
from repro.ufs.fsck import fsck
from repro.ufs.ufs import UFS
from repro.vlfs.vlfs import VLFS


def build(kind):
    from repro.blockdev.regular import RegularDisk
    from repro.lfs.lfs import LFS

    if kind == "ufs":
        return UFS(RegularDisk(Disk(ST19101)), SPARCSTATION_10)
    if kind == "lfs":
        return LFS(RegularDisk(Disk(ST19101)), SPARCSTATION_10)
    return VLFS(Disk(ST19101), SPARCSTATION_10)


@pytest.fixture(params=["ufs", "lfs", "vlfs"])
def fs(request):
    return build(request.param)


class TestRename:
    def test_simple_rename(self, fs):
        fs.create("/a")
        fs.write("/a", 0, b"payload")
        fs.rename("/a", "/b")
        assert not fs.exists("/a")
        data, _ = fs.read("/b", 0, 7)
        assert data == b"payload"

    def test_rename_across_directories(self, fs):
        fs.mkdir("/src")
        fs.mkdir("/dst")
        fs.create("/src/f")
        fs.write("/src/f", 0, b"x" * 5000)
        fs.rename("/src/f", "/dst/g")
        assert fs.listdir("/src") == []
        assert fs.listdir("/dst") == ["g"]
        data, _ = fs.read("/dst/g", 0, 5000)
        assert data == b"x" * 5000

    def test_rename_directory(self, fs):
        fs.mkdir("/d")
        fs.create("/d/child")
        fs.rename("/d", "/renamed")
        assert fs.exists("/renamed/child")

    def test_rename_missing_source(self, fs):
        with pytest.raises(FileNotFound):
            fs.rename("/ghost", "/b")

    def test_rename_onto_existing_rejected(self, fs):
        fs.create("/a")
        fs.create("/b")
        with pytest.raises(FileExists):
            fs.rename("/a", "/b")

    def test_rename_preserves_inum(self, fs):
        fs.create("/a")
        inum = fs.stat("/a").inum
        fs.rename("/a", "/b")
        assert fs.stat("/b").inum == inum

    def test_rename_into_own_subtree_rejected(self, fs):
        """There are no links to directories, so this would detach the
        subtree from the root (UFS fsck: orphan inodes)."""
        fs.mkdir("/p")
        fs.mkdir("/p/q")
        fs.create("/p/q/file")
        for target in ("/p/q/r", "/p/r", "/p/q/file/r"):
            with pytest.raises(FileSystemError) as caught:
                fs.rename("/p", target)
            assert type(caught.value) is FileSystemError, target
        with pytest.raises(FileExists):
            fs.rename("/p", "/p")
        assert fs.listdir("/") == ["p"]
        assert fs.listdir("/p") == ["q"]
        assert fs.exists("/p/q/file")
        # The test is on whole components: a sibling that merely shares
        # a prefix is an ordinary move.
        fs.mkdir("/pq")
        fs.rename("/p", "/pq/r")
        assert fs.exists("/pq/r/q/file")
        if isinstance(fs, UFS):
            fs.sync()
            report = fsck(fs)
            assert report.ok, report.errors

    def test_moving_a_directory_moves_its_parent_link(self, fs):
        fs.mkdir("/a")
        fs.mkdir("/b")
        fs.mkdir("/a/d")
        fs.rename("/a/d", "/b/d")
        assert (fs.stat("/a").nlink, fs.stat("/b").nlink) == (2, 3)
        if isinstance(fs, UFS):
            fs.sync()
            report = fsck(fs)
            assert report.ok, report.errors


class TestParentMustBeADirectory:
    """unlink, rmdir and rename refuse a regular file as the containing
    directory before anything parses its *data* as directory entries --
    create and mkdir always did."""

    def test_file_as_parent_is_not_a_directory(self, fs):
        fs.create("/victim")
        fs.write("/victim", 0, b"precious")
        # /looks holds the image of a directory block naming /victim's
        # inode; /plain holds ordinary data.
        fs.create("/looks")
        entry = DirectoryBlock(4096, {"x": fs.stat("/victim").inum})
        fs.write("/looks", 0, entry.pack())
        fs.create("/plain")
        fs.write("/plain", 0, b"\xab" * 4096)
        for parent in ("/looks", "/plain"):
            with pytest.raises(NotADirectory):
                fs.unlink(f"{parent}/x")
            with pytest.raises(NotADirectory):
                fs.rmdir(f"{parent}/x")
            with pytest.raises(NotADirectory):
                fs.rename(f"{parent}/x", "/stolen")
            with pytest.raises(NotADirectory):
                fs.rename("/victim", f"{parent}/x")
        assert fs.listdir("/") == ["looks", "plain", "victim"]
        data, _ = fs.read("/victim", 0, 100)
        assert data == b"precious"
        if isinstance(fs, UFS):
            fs.sync()
            report = fsck(fs)
            assert report.ok, report.errors


class TestTruncate:
    def test_shrink(self, fs):
        fs.create("/f")
        fs.write("/f", 0, bytes(range(256)) * 64)  # 16 KB
        fs.truncate("/f", 5000)
        assert fs.stat("/f").size == 5000
        data, _ = fs.read("/f", 0, 10000)
        assert data == (bytes(range(256)) * 64)[:5000]

    def test_shrink_to_zero(self, fs):
        fs.create("/f")
        fs.write("/f", 0, b"x" * 20000)
        fs.truncate("/f", 0)
        assert fs.stat("/f").size == 0
        data, _ = fs.read("/f", 0, 100)
        assert data == b""

    def test_sparse_grow(self, fs):
        fs.create("/f")
        fs.write("/f", 0, b"abc")
        fs.truncate("/f", 10000)
        assert fs.stat("/f").size == 10000
        data, _ = fs.read("/f", 0, 10000)
        assert data[:3] == b"abc"
        assert data[3:] == bytes(9997)

    def test_shrink_then_regrow_reads_zeros(self, fs):
        fs.create("/f")
        fs.write("/f", 0, b"\xff" * 20000)
        fs.truncate("/f", 6000)
        fs.truncate("/f", 20000)
        data, _ = fs.read("/f", 0, 20000)
        assert data[:6000] == b"\xff" * 6000
        assert data[6000:] == bytes(14000)

    def test_truncate_frees_space(self, fs):
        fs.create("/f")
        fs.write("/f", 0, bytes(4096) * 512)  # 2 MB
        fs.sync()
        fs.truncate("/f", 4096)
        fs.sync()
        # Writing another 2 MB must still fit comfortably: space came back.
        fs.create("/g")
        fs.write("/g", 0, bytes(4096) * 512)
        fs.sync()
        data, _ = fs.read("/f", 0, 4096)
        assert len(data) == 4096

    def test_truncate_directory_rejected(self, fs):
        fs.mkdir("/d")
        with pytest.raises(IsADirectory):
            fs.truncate("/d", 0)

    def test_negative_size_rejected(self, fs):
        fs.create("/f")
        with pytest.raises(ValueError):
            fs.truncate("/f", -1)


class TestUfsStructuralIntegrity:
    """UFS-specific: rename/truncate churn stays fsck-clean (fragments,
    bitmaps, indirect blocks)."""

    @pytest.mark.parametrize(
        "sizes",
        [
            (1024, 300),        # frag tail -> smaller frag tail
            (9000, 5000),       # cross-block shrink into frag tail
            (9000, 8192),       # shrink to exact block boundary
            (200_000, 9000),    # indirect blocks freed
            (1024, 100_000),    # frag tail -> sparse big file
            (100_000, 0),       # everything freed
        ],
    )
    def test_truncate_cases_fsck_clean(self, sizes):
        before, after = sizes
        fs = build("ufs")
        fs.create("/t")
        fs.write("/t", 0, b"\xab" * before)
        fs.truncate("/t", after)
        fs.sync()
        report = fsck(fs)
        assert report.ok, report.errors
        data, _ = fs.read("/t", 0, after)
        expected = (b"\xab" * before)[:after]
        expected += bytes(after - len(expected))
        assert data == expected

    def test_rename_churn_fsck_clean(self):
        fs = build("ufs")
        fs.mkdir("/a")
        fs.mkdir("/b")
        for i in range(25):
            fs.create(f"/a/f{i}")
            fs.write(f"/a/f{i}", 0, bytes(i * 100))
        for i in range(0, 25, 2):
            fs.rename(f"/a/f{i}", f"/b/g{i}")
        fs.sync()
        report = fsck(fs)
        assert report.ok, report.errors
