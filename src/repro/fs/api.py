"""The file system interface the benchmarks drive.

Every operation returns a :class:`~repro.sim.stats.Breakdown` describing the
simulated latency it cost (host CPU in ``other``, device components as the
disk reports them), so workloads can record per-operation latencies exactly
the way the paper's instrumented kernel did.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.sim.stats import Breakdown

if TYPE_CHECKING:  # an annotation only
    from repro.vlog.recovery import RecoveryOutcome


class FileSystemError(Exception):
    """Base class for file system errors."""


class FileNotFound(FileSystemError):
    pass


class FileExists(FileSystemError):
    pass


class NotADirectory(FileSystemError):
    pass


class IsADirectory(FileSystemError):
    pass


class DirectoryNotEmpty(FileSystemError):
    pass


class NoSpace(FileSystemError):
    pass


class CorruptDirectory(FileSystemError):
    """A directory block's bytes do not parse as directory entries."""


@dataclass
class FileStat:
    """Subset of ``stat(2)`` the benchmarks need."""

    inum: int
    size: int
    is_dir: bool
    nlink: int
    blocks: int  # number of file system blocks allocated


class FileSystem(abc.ABC):
    """Abstract hierarchical file system over a block device."""

    block_size: int

    # -- namespace ------------------------------------------------------

    @abc.abstractmethod
    def create(self, path: str) -> Breakdown:
        """Create an empty regular file."""

    @abc.abstractmethod
    def mkdir(self, path: str) -> Breakdown:
        """Create a directory."""

    @abc.abstractmethod
    def unlink(self, path: str) -> Breakdown:
        """Remove a regular file."""

    @abc.abstractmethod
    def rmdir(self, path: str) -> Breakdown:
        """Remove an empty directory."""

    @abc.abstractmethod
    def rename(self, old_path: str, new_path: str) -> Breakdown:
        """Move a file or directory to a new name (target must not exist)."""

    @abc.abstractmethod
    def truncate(self, path: str, size: int) -> Breakdown:
        """Set a regular file's size, freeing or sparsely extending it."""

    @abc.abstractmethod
    def stat(self, path: str) -> FileStat:
        """Look up a file's metadata (free of charge: benchmarks only)."""

    @abc.abstractmethod
    def listdir(self, path: str):
        """Names in a directory (free of charge: benchmarks only)."""

    @abc.abstractmethod
    def exists(self, path: str) -> bool:
        """Whether a path resolves (free of charge)."""

    # -- data -----------------------------------------------------------

    @abc.abstractmethod
    def write(
        self, path: str, offset: int, data: bytes, sync: bool = False
    ) -> Breakdown:
        """Write bytes at an offset, growing the file as needed.

        ``sync=True`` models ``O_SYNC``: the call completes only after data
        and the associated metadata reach stable storage.
        """

    @abc.abstractmethod
    def read(self, path: str, offset: int, length: int):
        """Read up to ``length`` bytes; returns ``(data, Breakdown)``."""

    @abc.abstractmethod
    def fsync(self, path: str) -> Breakdown:
        """Force a file's dirty state to stable storage."""

    @abc.abstractmethod
    def sync(self) -> Breakdown:
        """Flush all dirty state."""

    # -- lifecycle: the device contract's, one layer up ------------------
    # Crash goes down, recover comes up: ``crash()`` takes the device
    # beneath down with the file system; ``recover()`` brings the device
    # back first, then mounts from what it holds.

    @abc.abstractmethod
    def power_down(self) -> Breakdown:
        """Orderly shutdown: everything acknowledged reaches the device,
        then the device's own power-down runs."""

    @abc.abstractmethod
    def crash(self) -> None:
        """Power loss: volatile state is gone without write-back, the
        device crashes too, and only :meth:`recover` may run next."""

    @abc.abstractmethod
    def recover(self) -> RecoveryOutcome:
        """Recover the device, then mount from its contents.  The
        device's outcome is folded into the one returned (``parts``);
        the mount's own cost is added to its ``breakdown``."""

    # -- cache control (benchmark hooks) ---------------------------------

    @abc.abstractmethod
    def drop_caches(self) -> None:
        """Discard clean cached data (the paper's "after a cache flush")."""

    def idle(self, seconds: float) -> Breakdown:
        """Let ``seconds`` of idle time pass.

        File systems with background machinery (LFS cleaner, VLD compactor)
        override this to spend the idle time productively; the default just
        advances the clock.
        """
        raise NotImplementedError
