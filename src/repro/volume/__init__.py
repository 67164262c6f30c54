"""Sharded VLD volumes with independent fault domains.

:class:`ShardedVolume` stripes the logical block space across N complete
Virtual Log Disk stacks; shards crash, degrade, and recover
independently while the volume keeps serving the healthy majority.  See
:mod:`repro.volume.sharded` for the design and the identity contract
(a single-shard volume is a transparent pass-through).
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.volume.checker import VolumeFsckReport, volume_fsck
    from repro.volume.health import ShardHealthMonitor
    from repro.volume.sharded import ShardState, ShardUnavailable, ShardedVolume

__all__ = [
    "ShardHealthMonitor",
    "ShardState",
    "ShardUnavailable",
    "ShardedVolume",
    "VolumeFsckReport",
    "volume_fsck",
]

__getattr__, __dir__ = lazy_exports(__name__)
