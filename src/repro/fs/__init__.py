"""Shared file system infrastructure.

Common pieces used by the UFS, LFS, and VLFS implementations: the abstract
file system API the workloads drive, path handling, the inode structure
(12 direct + 1 single-indirect + 1 double-indirect block pointers), the
directory-file record format, and the namespace itself -- path resolution,
directories and the create / unlink / rename family, written once over
per-file-system storage hooks (:mod:`repro.fs.namespace`).
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.fs.api import (
        FileSystem,
        FileStat,
        FileSystemError,
        FileNotFound,
        FileExists,
        NotADirectory,
        IsADirectory,
        DirectoryNotEmpty,
        NoSpace,
        CorruptDirectory,
    )
    from repro.fs.path import split_path, validate_name
    from repro.fs.inode import Inode, FileType, INODE_SIZE
    from repro.fs.dirfile import DirectoryBlock
    from repro.fs.namespace import InodeNamespace

__all__ = [
    "FileSystem",
    "FileStat",
    "FileSystemError",
    "FileNotFound",
    "FileExists",
    "NotADirectory",
    "IsADirectory",
    "DirectoryNotEmpty",
    "NoSpace",
    "CorruptDirectory",
    "split_path",
    "validate_name",
    "Inode",
    "FileType",
    "INODE_SIZE",
    "DirectoryBlock",
    "InodeNamespace",
]

__getattr__, __dir__ = lazy_exports(__name__)
