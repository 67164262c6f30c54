"""The byte-addressable NVM device model: buffering, persistence, cost."""

import pytest

from repro.blockdev.nvm import NVM_SPECS, NVMDevice, NVMSpec
from repro.sim.clock import SimClock


@pytest.fixture
def clock():
    return SimClock()


@pytest.fixture
def nvm(clock):
    return NVMDevice(NVM_SPECS["nvdimm"], clock)


class TestPersistenceDomain:
    def test_store_is_buffered_not_persistent(self, nvm):
        nvm.store(0, b"abcd")
        assert nvm.persisted(0, 4) == bytes(4)

    def test_load_sees_buffered_store(self, nvm):
        nvm.store(16, b"wxyz")
        data, _ = nvm.load(16, 4)
        assert data == b"wxyz"

    def test_flush_commits(self, nvm):
        nvm.store(0, b"abcd")
        nvm.flush()
        assert nvm.persisted(0, 4) == b"abcd"

    def test_crash_discards_unflushed(self, nvm):
        nvm.store(0, b"keep")
        nvm.flush()
        nvm.store(0, b"lost")
        nvm.crash()
        assert nvm.persisted(0, 4) == b"keep"
        data, _ = nvm.load(0, 4)
        assert data == b"keep"
        assert nvm.stores_lost_on_crash == 1

    def test_overlapping_pending_stores_apply_in_order(self, nvm):
        nvm.store(0, b"aaaa")
        nvm.store(2, b"bb")
        data, _ = nvm.load(0, 4)
        assert data == b"aabb"
        nvm.flush()
        assert nvm.persisted(0, 4) == b"aabb"


class TestBoundsAndCost:
    def test_out_of_range_rejected(self, nvm):
        with pytest.raises(ValueError):
            nvm.store(nvm.capacity_bytes - 2, b"abcd")
        with pytest.raises(ValueError):
            nvm.load(-1, 4)

    def test_store_cost_is_latency_plus_bytes(self, clock):
        spec = NVMSpec(store_latency=1e-6, store_bandwidth=1e6)
        nvm = NVMDevice(spec, clock)
        cost = nvm.store(0, b"x" * 1000)
        assert cost.total == pytest.approx(1e-6 + 1000 / 1e6)
        assert clock.now == pytest.approx(cost.total)

    def test_format_is_persistent_free_and_counted(self, nvm, clock):
        """The factory format: in the persistence domain at once, no
        simulated time, booked as the store and flush it stands for."""
        nvm.format(8, b"abcd")
        assert nvm.persisted(8, 4) == b"abcd"
        assert clock.now == 0.0
        assert (nvm.stores, nvm.flushes, nvm.bytes_stored) == (1, 1, 4)

    def test_flush_charges_flush_latency(self, clock):
        spec = NVMSpec(flush_latency=2e-6)
        nvm = NVMDevice(spec, clock)
        cost = nvm.flush()
        assert cost.total == pytest.approx(2e-6)

    def test_with_overrides(self):
        spec = NVM_SPECS["nvdimm"].with_overrides(
            store_latency=9e-6, capacity_bytes=1 << 16
        )
        assert spec.store_latency == 9e-6
        assert spec.capacity_bytes == 1 << 16
        # The base spec is untouched (frozen dataclass semantics).
        assert NVM_SPECS["nvdimm"].store_latency == 150e-9
