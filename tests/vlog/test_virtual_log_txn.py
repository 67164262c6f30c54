"""VirtualLog-level transaction mechanics (below the VLD facade)."""

import pytest

from repro.disk.disk import Disk
from repro.disk.freemap import FreeSpaceMap
from repro.disk.specs import ST19101
from repro.vlog.allocator import AllocationPolicy, EagerAllocator
from repro.vlog.entries import COMMIT_CHUNK_BASE
from repro.vlog.recovery import disk_reader
from repro.vlog.virtual_log import VirtualLog


class Harness:
    def __init__(self):
        self.disk = Disk(ST19101, num_cylinders=3)
        self.freemap = FreeSpaceMap(self.disk.geometry)
        self.allocator = EagerAllocator(
            self.disk, self.freemap, 8, AllocationPolicy.NEAREST
        )
        self.chunks = {}
        self.vlog = VirtualLog(
            self.disk, self.allocator, lambda c: self.chunks[c], 4096
        )

    def put(self, chunk, entries):
        self.chunks[chunk] = list(entries)
        return self.vlog.append(chunk, self.chunks[chunk])

    def txn_put(self, chunk, entries, txn):
        self.chunks[chunk] = list(entries)
        return self.vlog.append_txn_member(chunk, self.chunks[chunk], txn)

    def recover(self):
        result, _cost, _n = self.vlog.recover_from_tail(
            self.vlog.tail, disk_reader(self.vlog.disk)
        )
        # The owner's step after recovery (this harness's free map never
        # lost its state, so there is nothing to rebuild first).
        self.vlog.repair_reachability()
        return result


@pytest.fixture
def h():
    return Harness()


class TestMemberSemantics:
    def test_member_keeps_predecessor_until_commit(self, h):
        h.put(0, [1])
        old_block = h.vlog.location_of(0)
        _, superseded = h.txn_put(0, [2], txn=h.vlog.begin_txn())
        assert superseded == old_block
        # The predecessor's block is still occupied (not recycled).
        assert not h.freemap.run_is_free(old_block * 8, 8)

    def test_commit_recycles_predecessors(self, h):
        h.put(0, [1])
        old_block = h.vlog.location_of(0)
        txn = h.vlog.begin_txn()
        _, superseded = h.txn_put(0, [2], txn)
        h.vlog.commit_txn(txn, [superseded])
        assert h.freemap.run_is_free(old_block * 8, 8)
        h.vlog.check_invariants()

    def test_uncommitted_members_invisible_to_recovery(self, h):
        h.put(0, [1])
        h.put(1, [10])
        txn = h.vlog.begin_txn()
        h.txn_put(0, [2], txn)
        h.txn_put(1, [20], txn)
        # no commit record
        recovered = h.recover()
        assert recovered[0] == [1]
        assert recovered[1] == [10]

    def test_committed_members_visible_to_recovery(self, h):
        h.put(0, [1])
        txn = h.vlog.begin_txn()
        _, superseded = h.txn_put(0, [2], txn)
        h.vlog.commit_txn(txn, [superseded])
        recovered = h.recover()
        assert recovered[0] == [2]

    def test_invalid_txn_id_rejected(self, h):
        with pytest.raises(ValueError):
            h.vlog.append_txn_member(0, [1], 0)
        with pytest.raises(ValueError):
            h.vlog.commit_txn(-1, [])


class TestAbort:
    def test_abort_restores_and_recycles(self, h):
        h.put(0, [1])
        h.put(1, [10])
        txn = h.vlog.begin_txn()
        h.txn_put(0, [2], txn)
        before = {0: [1], 1: [10]}

        def restore(chunk_id):
            h.chunks[chunk_id] = list(before[chunk_id])
            return h.chunks[chunk_id]

        h.vlog.abort_txn(txn, restore)
        h.vlog.check_invariants()
        recovered = h.recover()
        assert recovered[0] == [1]
        assert recovered[1] == [10]

    def test_log_usable_after_abort(self, h):
        h.put(0, [1])
        txn = h.vlog.begin_txn()
        h.txn_put(0, [2], txn)
        h.vlog.abort_txn(txn, lambda c: [1])
        h.chunks[0] = [1]
        h.put(0, [3])
        assert h.recover()[0] == [3]


class TestCommitSlots:
    def test_slots_recycle_after_members_superseded(self, h):
        h.put(0, [0])
        for round_number in range(1, 20):
            txn = h.vlog.begin_txn()
            _, superseded = h.txn_put(0, [round_number], txn)
            h.vlog.commit_txn(
                txn, [] if superseded is None else [superseded]
            )
        live_commits = [
            c
            for c in h.vlog._chunk_location
            if c >= COMMIT_CHUNK_BASE
        ]
        assert len(live_commits) <= 3
        h.vlog.check_invariants()

    def test_recovery_rebuilds_slot_bookkeeping(self, h):
        h.put(0, [0])
        txn = h.vlog.begin_txn()
        _, superseded = h.txn_put(0, [7], txn)
        h.vlog.commit_txn(txn, [superseded])
        h.recover()
        # The committed txn is visible and ids keep increasing.
        assert txn in h.vlog.recovered_committed_txns
        assert h.vlog.begin_txn() > txn
        # Normal operation continues.
        h.put(0, [99])
        assert h.recover()[0] == [99]


class TestCommitSlotInverseMap:
    """``_slot_txn`` is the exact inverse of ``_txn_slot`` at every
    mutation -- the append path answers commit-slot payloads from it
    instead of rebuilding a reversed dict per record, so any drift
    between the two would silently corrupt relocated commit records."""

    def _assert_inverse(self, vlog):
        assert vlog._slot_txn == {
            slot: txn for txn, slot in vlog._txn_slot.items()
        }

    def test_commit_populates_both_directions(self, h):
        h.put(0, [1])
        txn = h.vlog.begin_txn()
        _, superseded = h.txn_put(0, [2], txn)
        h.vlog.commit_txn(txn, [superseded])
        self._assert_inverse(h.vlog)
        slot = h.vlog._txn_slot[txn]
        # The append path resolves the slot's payload to the txn id.
        assert h.vlog._chunk_payload(slot) == [txn]

    def test_slot_retirement_clears_inverse(self, h):
        h.put(0, [1])
        txn = h.vlog.begin_txn()
        _, superseded = h.txn_put(0, [2], txn)
        h.vlog.commit_txn(txn, [superseded])
        slot = h.vlog._txn_slot[txn]
        # A plain append supersedes the member record, retiring the txn
        # and its slot.
        h.put(0, [3])
        self._assert_inverse(h.vlog)
        assert slot not in h.vlog._slot_txn
        assert h.vlog._chunk_payload(slot) == [0]

    def test_reused_slot_answers_new_txn(self, h):
        h.put(0, [1])
        first = h.vlog.begin_txn()
        _, superseded = h.txn_put(0, [2], first)
        h.vlog.commit_txn(first, [superseded])
        slot = h.vlog._txn_slot[first]
        h.put(0, [3])  # retire the first txn, freeing its slot
        second = h.vlog.begin_txn()
        _, superseded = h.txn_put(0, [4], second)
        h.vlog.commit_txn(second, [superseded])
        self._assert_inverse(h.vlog)
        assert h.vlog._txn_slot[second] == slot
        assert h.vlog._chunk_payload(slot) == [second]

    def test_abort_keeps_maps_agreeing(self, h):
        h.put(0, [1])
        h.put(1, [5])
        txn = h.vlog.begin_txn()
        h.txn_put(0, [2], txn)
        h.txn_put(1, [6], txn)
        h.vlog.abort_txn(txn, lambda c: {0: [1], 1: [5]}[c])
        self._assert_inverse(h.vlog)
        assert txn not in h.vlog._txn_slot
        h.vlog.check_invariants()

    def test_recovery_rebuilds_inverse(self, h):
        h.put(0, [1])
        for value in (2, 3, 4):
            txn = h.vlog.begin_txn()
            _, superseded = h.txn_put(0, [value], txn)
            h.vlog.commit_txn(
                txn, [] if superseded is None else [superseded]
            )
        h.recover()
        self._assert_inverse(h.vlog)
        for txn, slot in h.vlog._txn_slot.items():
            assert h.vlog._chunk_payload(slot) == [txn]
