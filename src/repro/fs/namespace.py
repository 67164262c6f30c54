"""The namespace every inode-based file system here shares.

UFS, LFS and VLFS do the same *logical* work to create, delete and look up
a name -- the paper compares where their blocks go and which writes are
synchronous, not how they resolve a path.  :class:`InodeNamespace` is the
one copy of that work: path resolution, the directory-file protocol and
the eight namespace calls, over nine storage hooks (DESIGN.md section 18).

**The call order is the write order.**  This code issues no I/O of its
own; every simulated read and write happens inside a hook, so the order
hooks are called in *is* each file system's on-disk ordering -- for UFS
the FFS rules: an inode reaches disk before the entry naming it, an entry
disappears before its inode is freed, ``rename`` adds the new name before
removing the old.  ``tests/fs/test_fs_identity.py`` pins the result.

Deliberately *not* here: the data path (fragments and read-ahead vs the
file cache and staging are different algorithms; sharing them would make
this code branch on its caller) and ``repro.ufs.fsck``'s tree walk (a
checker must not reuse what it checks).
"""

from __future__ import annotations

from typing import Hashable, Iterator, List, Optional, Tuple

from repro.fs.api import (
    DirectoryNotEmpty,
    FileExists,
    FileNotFound,
    FileStat,
    FileSystem,
    FileSystemError,
    IsADirectory,
    NotADirectory,
)
from repro.fs.dirfile import DirectoryBlock
from repro.fs.inode import FileType, Inode
from repro.fs.path import dirname_basename, split_path
from repro.sim.stats import Breakdown


class InodeNamespace(FileSystem):
    """Paths, directories and the namespace calls over storage hooks."""

    # ==================================================================
    # Storage hooks
    # ==================================================================

    #: inode number of ``/``.
    _root_inum: int

    def _start_op(self, blocks: int = 1) -> Breakdown:
        """Charge one call's host (and command) overhead to the clock."""
        raise NotImplementedError

    def _read_inode(self, inum: int, breakdown: Breakdown) -> Inode:
        """Fetch an inode, charging any device read to ``breakdown``."""
        raise NotImplementedError

    def _write_inode(
        self, inum: int, inode: Inode, sync: bool, breakdown: Breakdown
    ) -> None:
        """Record an updated inode; ``sync`` asks for it on disk now."""
        raise NotImplementedError

    def _new_inode(self, parent: int, inode: Inode, breakdown: Breakdown) -> int:
        """Allocate a number for ``inode`` (near directory ``parent`` where
        placement matters) and make it as durable as this file system
        wants it *before* an entry names it."""
        raise NotImplementedError

    def _drop_inode(self, inum: int, inode: Inode, breakdown: Breakdown) -> None:
        """Free an inode no entry names, and every block it owns."""
        raise NotImplementedError

    def _parsed_dir_blocks(
        self, inum: int, inode: Inode, breakdown: Breakdown
    ) -> Iterator[Tuple[Hashable, DirectoryBlock]]:
        """Yield ``(key, parsed block)`` per directory block, each read
        through the normal data path; ``key`` is whatever
        :meth:`_dir_store` needs to write that block back."""
        raise NotImplementedError

    def _dir_store(
        self, inum: int, inode: Inode, key: Hashable, block: DirectoryBlock,
        breakdown: Breakdown,
    ) -> None:
        """Write back an edited directory block and touch the inode."""
        raise NotImplementedError

    def _dir_append(
        self, inum: int, inode: Inode, block: DirectoryBlock,
        breakdown: Breakdown,
    ) -> None:
        """Grow a directory by one block holding ``block``."""
        raise NotImplementedError

    def _stat_blocks(self, inode: Inode) -> int:
        """File system blocks allocated to an inode, for ``stat`` (UFS
        overrides: a tail in fragments is not a whole block)."""
        return -(-inode.size // self.block_size)

    # ==================================================================
    # Path resolution and the directory-file protocol
    # ==================================================================

    def _namei(self, parts: List[str], breakdown: Breakdown) -> int:
        inum = self._root_inum
        for name in parts:
            inode = self._read_inode(inum, breakdown)
            if not inode.is_dir:
                raise NotADirectory(f"{name!r}: ancestor is not a directory")
            child = self._dir_lookup(inum, inode, name, breakdown)
            if child is None:
                raise FileNotFound(f"no such file or directory: {name!r}")
            inum = child
        return inum

    def _parent_of(
        self, path: str, parents: List[str], breakdown: Breakdown
    ) -> Tuple[int, Inode]:
        """Resolve the directory that holds (or will hold) ``path``.

        A regular file here must be refused before anything parses its
        *data* as directory entries."""
        inum = self._namei(parents, breakdown)
        inode = self._read_inode(inum, breakdown)
        if not inode.is_dir:
            raise NotADirectory(path)
        return inum, inode

    def _file_at(self, path: str, breakdown: Breakdown) -> Tuple[int, Inode]:
        """Resolve ``path`` for the data path: anything but a directory."""
        inum = self._namei(split_path(path), breakdown)
        inode = self._read_inode(inum, breakdown)
        if inode.is_dir:
            raise IsADirectory(path)
        return inum, inode

    def _dir_lookup(
        self, inum: int, inode: Inode, name: str, breakdown: Breakdown
    ) -> Optional[int]:
        for _key, block in self._parsed_dir_blocks(inum, inode, breakdown):
            child = block.lookup(name)
            if child is not None:
                return child
        return None

    def _dir_add(
        self, inum: int, inode: Inode, name: str, child: int,
        breakdown: Breakdown,
    ) -> None:
        """Insert an entry in the first block with room, else a new one."""
        for key, block in self._parsed_dir_blocks(inum, inode, breakdown):
            if block.space_for(name):
                block.add(name, child)
                self._dir_store(inum, inode, key, block, breakdown)
                return
        block = DirectoryBlock(self.block_size, {name: child})
        self._dir_append(inum, inode, block, breakdown)

    def _dir_remove(
        self, inum: int, inode: Inode, name: str, breakdown: Breakdown
    ) -> int:
        for key, block in self._parsed_dir_blocks(inum, inode, breakdown):
            if block.lookup(name) is not None:
                child = block.remove(name)
                self._dir_store(inum, inode, key, block, breakdown)
                return child
        raise FileNotFound(f"no such entry: {name!r}")

    # ==================================================================
    # Namespace calls
    # ==================================================================

    def _make(self, path: str, itype: int) -> Breakdown:
        breakdown = self._start_op()
        parents, name = dirname_basename(path)
        dir_inum, dir_inode = self._parent_of(path, parents, breakdown)
        if self._dir_lookup(dir_inum, dir_inode, name, breakdown) is not None:
            raise FileExists(path)
        is_dir = itype == FileType.DIRECTORY
        inode = Inode(itype=itype, nlink=2 if is_dir else 1, mtime=self.clock.now)
        inum = self._new_inode(dir_inum, inode, breakdown)
        self._dir_add(dir_inum, dir_inode, name, inum, breakdown)
        if is_dir:
            dir_inode.nlink += 1  # the child's ".."
            self._write_inode(dir_inum, dir_inode, False, breakdown)
        return breakdown

    def create(self, path: str) -> Breakdown:
        return self._make(path, FileType.REGULAR)

    def mkdir(self, path: str) -> Breakdown:
        return self._make(path, FileType.DIRECTORY)

    def _remove(self, path: str, want_dir: bool) -> Breakdown:
        breakdown = self._start_op()
        parents, name = dirname_basename(path)
        dir_inum, dir_inode = self._parent_of(path, parents, breakdown)
        inum = self._dir_lookup(dir_inum, dir_inode, name, breakdown)
        if inum is None:
            raise FileNotFound(path)
        inode = self._read_inode(inum, breakdown)
        if want_dir:
            if not inode.is_dir:
                raise NotADirectory(path)
            blocks = self._parsed_dir_blocks(inum, inode, breakdown)
            if any(len(block) for _key, block in blocks):
                raise DirectoryNotEmpty(path)
        elif inode.is_dir:
            raise IsADirectory(path)
        # The entry disappears before the inode is freed.
        self._dir_remove(dir_inum, dir_inode, name, breakdown)
        self._drop_inode(inum, inode, breakdown)
        if want_dir:
            dir_inode.nlink = max(2, dir_inode.nlink - 1)
            self._write_inode(dir_inum, dir_inode, False, breakdown)
        return breakdown

    def unlink(self, path: str) -> Breakdown:
        return self._remove(path, want_dir=False)

    def rmdir(self, path: str) -> Breakdown:
        return self._remove(path, want_dir=True)

    def rename(self, old_path: str, new_path: str) -> Breakdown:
        """Move an entry between directories: the new name is added
        before the old one is removed, so a crash leaves at worst an extra
        (hard-link-like) entry, never a lost file.  A directory that
        changes parent takes its ``..`` along: one link moves from the
        old parent's count to the new one's."""
        breakdown = self._start_op()
        old_parents, old_name = dirname_basename(old_path)
        new_parents, new_name = dirname_basename(new_path)
        # There are no links to directories, so "into its own subtree" is
        # decidable from the paths, before any read (x -> x: FileExists).
        old_parts = old_parents + [old_name]
        if new_parents[: len(old_parts)] == old_parts:
            raise FileSystemError(
                f"cannot move {old_path!r} into its own subtree {new_path!r}"
            )
        old_dir, old_dir_inode = self._parent_of(
            old_path, old_parents, breakdown
        )
        inum = self._dir_lookup(old_dir, old_dir_inode, old_name, breakdown)
        if inum is None:
            raise FileNotFound(old_path)
        new_dir, new_dir_inode = self._parent_of(
            new_path, new_parents, breakdown
        )
        if self._dir_lookup(
            new_dir, new_dir_inode, new_name, breakdown
        ) is not None:
            raise FileExists(new_path)
        moves_a_directory = (
            old_dir != new_dir and self._read_inode(inum, breakdown).is_dir
        )
        self._dir_add(new_dir, new_dir_inode, new_name, inum, breakdown)
        if moves_a_directory:
            new_dir_inode.nlink += 1
            self._write_inode(new_dir, new_dir_inode, False, breakdown)
        if old_dir == new_dir:
            # One directory: removal must start from the inode the add
            # just wrote, not the copy read before it.
            old_dir_inode = self._read_inode(old_dir, breakdown)
        self._dir_remove(old_dir, old_dir_inode, old_name, breakdown)
        if moves_a_directory:
            old_dir_inode.nlink = max(2, old_dir_inode.nlink - 1)
            self._write_inode(old_dir, old_dir_inode, False, breakdown)
        return breakdown

    # -- free of charge: benchmarks only --------------------------------

    def stat(self, path: str) -> FileStat:
        breakdown = Breakdown()
        inum = self._namei(split_path(path), breakdown)
        inode = self._read_inode(inum, breakdown)
        return FileStat(
            inum=inum,
            size=inode.size,
            is_dir=inode.is_dir,
            nlink=inode.nlink,
            blocks=self._stat_blocks(inode),
        )

    def listdir(self, path: str):
        breakdown = Breakdown()
        inum = self._namei(split_path(path), breakdown)
        inode = self._read_inode(inum, breakdown)
        if not inode.is_dir:
            raise NotADirectory(path)
        names: List[str] = []
        for _key, block in self._parsed_dir_blocks(inum, inode, breakdown):
            names.extend(block.entries)
        return sorted(names)

    def exists(self, path: str) -> bool:
        try:
            self._namei(split_path(path), Breakdown())
            return True
        except (FileNotFound, NotADirectory):
            return False
