"""The virtual log: the paper's core contribution (Section 3).

A *virtual log* is a log whose entries are not physically contiguous: each
entry is eagerly written to a free block near the disk head and threaded
backwards into a tree so that

* overwritten entries' space can be recycled without recopying live entries
  (Figure 3b), and
* recovery bootstraps from a single log-tail pointer persisted by the drive
  firmware at power-down, falling back to a full-disk scan for checksummed
  entries when that record is damaged.

:class:`~repro.vlog.vld.VirtualLogDisk` packages the log, the indirection
map, the eager-writing allocator, and the idle-time free-space compactor
behind the standard block-device interface.
"""

from repro.vlog.entries import (
    MapRecord,
    entries_per_chunk,
    QUARANTINE_CHUNK_BASE,
    UNMAPPED,
)
from repro.vlog.virtual_log import VirtualLog
from repro.vlog.imap import IndirectionMap
from repro.vlog.allocator import EagerAllocator, AllocationPolicy
from repro.vlog.compactor import FreeSpaceCompactor
from repro.vlog.recovery import (
    PowerDownStore,
    RecoveryOutcome,
    scan_records,
)
from repro.vlog.resilience import (
    ChecksumStore,
    FsckReport,
    MediaError,
    MediaScrubber,
    QuarantineTable,
    ResilienceController,
    RetryPolicy,
    vlfsck,
)
from repro.vlog.vld import VirtualLogDisk
from repro.vlog.transactions import Transaction, TransactionalVLD
from repro.vlog.reorganizer import ReadReorganizer

__all__ = [
    "MapRecord",
    "entries_per_chunk",
    "QUARANTINE_CHUNK_BASE",
    "UNMAPPED",
    "VirtualLog",
    "IndirectionMap",
    "EagerAllocator",
    "AllocationPolicy",
    "FreeSpaceCompactor",
    "PowerDownStore",
    "RecoveryOutcome",
    "scan_records",
    "ChecksumStore",
    "FsckReport",
    "MediaError",
    "MediaScrubber",
    "QuarantineTable",
    "ResilienceController",
    "RetryPolicy",
    "vlfsck",
    "VirtualLogDisk",
    "Transaction",
    "TransactionalVLD",
    "ReadReorganizer",
]
