import pytest

from repro.blockdev.regular import RegularDisk
from repro.disk.disk import Disk
from repro.disk.specs import ST19101


@pytest.fixture
def device():
    return RegularDisk(Disk(ST19101))


class TestIdentityMapping:
    def test_block_count(self, device):
        assert device.num_blocks == device.disk.total_sectors // 8

    def test_capacity(self, device):
        assert device.capacity_bytes == device.disk.geometry.capacity_bytes

    def test_write_read_roundtrip(self, device):
        payload = b"\x42" * 4096
        device.write_block(17, payload)
        data, _ = device.read_block(17)
        assert data == payload

    def test_multi_block_roundtrip(self, device):
        payload = bytes(range(256)) * 48  # 3 blocks
        device.write_blocks(5, 3, payload)
        data, _ = device.read_blocks(5, 3)
        assert data == payload

    def test_blocks_land_at_identity_sectors(self, device):
        device.write_block(10, b"\x01" * 4096)
        assert device.disk.peek(80, 8) == b"\x01" * 4096

    def test_write_none_zero_fills(self, device):
        device.write_block(3, b"\xff" * 4096)
        device.write_block(3)
        data, _ = device.read_block(3)
        assert data == bytes(4096)

    def test_lba_bounds(self, device):
        with pytest.raises(ValueError):
            device.read_block(device.num_blocks)
        with pytest.raises(ValueError):
            device.read_blocks(device.num_blocks - 1, 2)
        with pytest.raises(ValueError):
            device.read_blocks(0, 0)

    def test_data_length_validation(self, device):
        with pytest.raises(ValueError):
            device.write_block(0, b"short")

    def test_unaligned_block_size_rejected(self):
        with pytest.raises(ValueError):
            RegularDisk(Disk(ST19101), block_size=1000)


class TestPartialWrites:
    def test_partial_write_touches_only_covered_sectors(self, device):
        device.write_block(7, b"\xaa" * 4096)
        device.write_partial(7, 1024, b"\xbb" * 1024)
        data, _ = device.read_block(7)
        assert data[:1024] == b"\xaa" * 1024
        assert data[1024:2048] == b"\xbb" * 1024
        assert data[2048:] == b"\xaa" * 2048

    def test_partial_write_cheaper_than_full(self, device):
        full = device.write_block(100, b"\x00" * 4096)
        partial = device.write_partial(100, 0, b"\x00" * 1024)
        assert partial.transfer < full.transfer

    def test_partial_alignment_enforced(self, device):
        with pytest.raises(ValueError):
            device.write_partial(0, 100, b"\x00" * 512)
        with pytest.raises(ValueError):
            device.write_partial(0, 0, b"\x00" * 100)

    def test_partial_overflow_rejected(self, device):
        with pytest.raises(ValueError):
            device.write_partial(0, 3584, b"\x00" * 1024)


class TestIdle:
    def test_idle_advances_clock(self, device):
        before = device.disk.clock.now
        device.idle(1.5)
        assert device.disk.clock.now == pytest.approx(before + 1.5)

    def test_negative_idle_rejected(self, device):
        with pytest.raises(ValueError):
            device.idle(-1.0)
