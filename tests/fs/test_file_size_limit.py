"""A file offset past the inode's reach is refused before anything moves.

The inode addresses ``max_file_blocks(block_size)`` blocks (12 direct, one
single- and one double-indirect tree).  The last of them writes and reads
back on every file-system stack; a ``write`` or ``truncate`` whose end
passes it raises ``ValueError`` before ``_start_op``, so it charges no time
and allocates nothing: UFS stays fsck-clean and the log family's next
``sync()`` succeeds.
"""

from __future__ import annotations

import pytest

from repro.blockdev.interpose import build_device_stack
from repro.disk.disk import Disk
from repro.disk.specs import ST19101
from repro.fs.inode import max_file_blocks
from repro.harness.configs import STACKS
from repro.hosts.specs import SPARCSTATION_10
from repro.lfs.lfs import LFS
from repro.ufs.fsck import fsck
from repro.ufs.ufs import UFS
from repro.vlfs.vlfs import VLFS

BS = 4096
LIMIT = max_file_blocks(BS) * BS
NAMES = ["ufs-regular", "ufs-vld", "lfs-regular", "lfs-vld", "vlfs"]


def _build(name: str):
    if name == "vlfs":
        return VLFS(Disk(ST19101), SPARCSTATION_10)
    config = STACKS[name]
    device = build_device_stack(Disk(ST19101), config.device_type)
    fs_type = UFS if config.fs_type == "ufs" else LFS
    return fs_type(device, SPARCSTATION_10)


@pytest.mark.parametrize("name", NAMES)
def test_the_last_block_is_reachable_and_the_next_is_refused(name):
    fs = _build(name)
    fs.create("/f")
    last = bytes(range(256)) * (BS // 256)
    fs.write("/f", LIMIT - BS, last)
    data, _ = fs.read("/f", LIMIT - BS, BS)
    assert data == last

    now = fs.clock.now
    with pytest.raises(ValueError, match=str(LIMIT)):
        fs.write("/f", LIMIT, bytes(BS))
    with pytest.raises(ValueError, match=str(LIMIT)):
        fs.write("/f", LIMIT - 1, b"ab")
    with pytest.raises(ValueError, match=str(LIMIT)):
        fs.truncate("/f", LIMIT + 1)
    assert fs.clock.now == now

    fs.sync()
    fs.write("/f", 0, bytes(BS), sync=True)
    assert fs.read("/f", LIMIT - BS, BS)[0] == last
    if isinstance(fs, UFS):
        assert fsck(fs).ok
