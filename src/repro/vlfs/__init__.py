"""VLFS: the log-structured file system on the virtual log (Section 3.3).

The paper designs -- but does not implement -- a variant of LFS for the
programmable disk: data, inode, and inode-map blocks are all eagerly
written near the head (no physically contiguous segments), and *only the
inode-map blocks* belong to the virtual log, "essentially adding a level
of indirection to the indirection map".  Because every block lands near
the head individually, small synchronous writes are fast like the VLD's,
while the asynchronous buffering benefits of LFS are retained; the LFS
cleaner is replaced by (optional) free-space compaction.

This package builds that design.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.vlfs.vlfs import VLFS

__all__ = ["VLFS"]

__getattr__, __dir__ = lazy_exports(__name__)
