import pytest

from repro.blockdev.regular import RegularDisk
from repro.disk.disk import Disk
from repro.disk.specs import ST19101
from repro.fs.api import NoSpace
from repro.sim.stats import Breakdown
from repro.ufs.alloc import UFSAllocator
from repro.ufs.buffer_cache import BufferCache
from repro.ufs.layout import UFSLayout


@pytest.fixture
def alloc():
    device = RegularDisk(Disk(ST19101, num_cylinders=4))
    layout = UFSLayout.design(device.num_blocks, blocks_per_group=512)
    cache = BufferCache(device, 2 << 20)
    allocator = UFSAllocator(layout, cache)
    allocator.initialise()
    return allocator


class TestInodes:
    def test_alloc_free_roundtrip(self, alloc):
        inum = alloc.alloc_inode(parent_inum=1, is_dir=False)
        group = alloc.layout.group_of_inum(inum)
        assert alloc.groups[group].inodes.test(
            inum % alloc.layout.sb.inodes_per_group
        )
        alloc.free_inode(inum)
        assert not alloc.groups[group].inodes.test(
            inum % alloc.layout.sb.inodes_per_group
        )

    def test_file_inode_stays_in_parent_group(self, alloc):
        ipg = alloc.layout.sb.inodes_per_group
        parent = ipg + 5  # an inode in group 1
        inum = alloc.alloc_inode(parent, is_dir=False)
        assert alloc.layout.group_of_inum(inum) == 1

    def test_directories_spread_across_groups(self, alloc):
        ipg = alloc.layout.sb.inodes_per_group
        groups = {
            alloc.layout.group_of_inum(alloc.alloc_inode(1, is_dir=True))
            for _ in range(alloc.layout.sb.num_groups)
        }
        assert len(groups) > 1

    def test_exhaustion_raises(self, alloc):
        total = alloc.layout.total_inodes
        for _ in range(total - 1):  # inode 0 is reserved
            alloc.alloc_inode(1, is_dir=False)
        with pytest.raises(NoSpace):
            alloc.alloc_inode(1, is_dir=False)


class TestBlocks:
    def test_alloc_marks_all_frags(self, alloc):
        lba = alloc.alloc_block(goal_lba=0)
        group = alloc.layout.group_of_block(lba)
        base = (lba - alloc.layout.group_start(group)) * 4
        assert all(alloc.groups[group].frags.test(base + k) for k in range(4))

    def test_alloc_avoids_metadata(self, alloc):
        for _ in range(50):
            lba = alloc.alloc_block(goal_lba=0)
            group = alloc.layout.group_of_block(lba)
            assert lba >= alloc.layout.data_start(group)

    def test_goal_directed_allocation_contiguous(self, alloc):
        first = alloc.alloc_block(goal_lba=0)
        second = alloc.alloc_block(goal_lba=first + 1)
        assert second == first + 1

    def test_free_block(self, alloc):
        lba = alloc.alloc_block(goal_lba=0)
        before = alloc.free_space()[0]
        alloc.free_block(lba)
        assert alloc.free_space()[0] == before + 4

    def test_spills_to_other_groups(self, alloc):
        # Exhaust group 0's data area.
        layout = alloc.layout
        span = layout.sb.blocks_per_group - layout.meta_blocks_per_group
        for _ in range(span):
            alloc.alloc_block(goal_lba=layout.data_start(0))
        lba = alloc.alloc_block(goal_lba=layout.data_start(0))
        assert layout.group_of_block(lba) != 0


class TestFrags:
    def test_alloc_frags_subblock(self, alloc):
        frag = alloc.alloc_frags(1, goal_lba=0)
        lba = frag // 4
        group = alloc.layout.group_of_block(lba)
        assert lba >= alloc.layout.data_start(group)

    def test_frags_share_blocks(self, alloc):
        first = alloc.alloc_frags(1, goal_lba=0)
        second = alloc.alloc_frags(1, goal_lba=0)
        assert second // 4 == first // 4  # plugged into the same block

    def test_free_frags(self, alloc):
        frag = alloc.alloc_frags(2, goal_lba=0)
        before = alloc.free_space()[0]
        alloc.free_frags(frag, 2)
        assert alloc.free_space()[0] == before + 2


class TestPersistence:
    def test_store_load_roundtrip(self, alloc):
        inum = alloc.alloc_inode(1, is_dir=False)
        lba = alloc.alloc_block(goal_lba=0)
        for group in range(alloc.layout.sb.num_groups):
            alloc.store_group(group)
        alloc.cache.flush()
        fresh = UFSAllocator(alloc.layout, alloc.cache)
        fresh.load(Breakdown())
        assert fresh.free_space() == alloc.free_space()
        group = alloc.layout.group_of_inum(inum)
        assert fresh.groups[group].inodes.test(
            inum % alloc.layout.sb.inodes_per_group
        )
