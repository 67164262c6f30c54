"""An update-in-place FFS-style file system (the paper's "UFS").

Configured like the paper's Solaris UFS runs: 4 KB blocks, 1 KB fragments,
cylinder-group allocation, synchronous metadata updates (create and delete
each pay synchronous inode and directory writes), optional synchronous data
writes, and sequential-read prefetch.  Runs unmodified on either the
regular disk or the Virtual Log Disk, exactly as in Section 4.3.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.ufs.bitmap import Bitmap
    from repro.ufs.layout import UFSLayout, Superblock
    from repro.ufs.buffer_cache import BufferCache
    from repro.ufs.alloc import UFSAllocator
    from repro.ufs.ufs import UFS

__all__ = ["Bitmap", "UFSLayout", "Superblock", "BufferCache", "UFSAllocator", "UFS"]

__getattr__, __dir__ = lazy_exports(__name__)
