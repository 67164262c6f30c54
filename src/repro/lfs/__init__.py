"""A log-structured file system (the paper's "LFS").

Modeled on the MIT Log-structured Logical Disk configuration of Section 4.4:
4 KB blocks, 0.5 MB segments, a 6.1 MB file buffer cache (optionally treated
as NVRAM), a 75 % partial-segment threshold for ``sync``, a cleaner that can
run both on demand (out of free segments) and during idle periods, and no
read-ahead.  Checkpoints plus roll-forward provide recovery.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.lfs.layout import LFSLayout, LFSSuperblock
    from repro.lfs.segment import SegmentSummary, SegmentWriter, BlockKind
    from repro.lfs.inode_map import InodeMap, SegmentUsage
    from repro.lfs.nvram import FileCache
    from repro.lfs.cleaner import Cleaner, CleanerPolicy
    from repro.lfs.lfs import LFS

__all__ = [
    "LFSLayout",
    "LFSSuperblock",
    "SegmentSummary",
    "SegmentWriter",
    "BlockKind",
    "InodeMap",
    "SegmentUsage",
    "FileCache",
    "Cleaner",
    "CleanerPolicy",
    "LFS",
]

__getattr__, __dir__ = lazy_exports(__name__)
