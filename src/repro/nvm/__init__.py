"""The transparent NVM write-ahead tier.

:class:`NVWal` absorbs synchronous writes into a byte-addressable
stable-memory log in front of any block device (VLD, LFS segment store,
UFS on a regular disk), acknowledges at NVM persistence speed, and
destages to the backing store during idle time.  See
:mod:`repro.nvm.wal` for the log format and the two-tier commit point.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.nvm.wal import NVWal

__all__ = ["NVWal"]

__getattr__, __dir__ = lazy_exports(__name__)
