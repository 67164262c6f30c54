"""Atomic multi-block transactions on the virtual log.

The all-or-nothing guarantee is exercised with a fault-plane power loss
at every phase of the commit protocol, plus a randomized
multi-transaction history check.
"""

import random

import pytest

from repro.disk.disk import Disk
from repro.disk.specs import ST19101
from repro.vlog.transactions import TransactionalVLD
from tests._commit_crash import PHASES, crash_commit


@pytest.fixture
def tvld():
    return TransactionalVLD(Disk(ST19101))


def block(tag: int) -> bytes:
    return bytes([tag % 251]) * 4096


class TestCommit:
    def test_atomic_write_applies_all(self, tvld):
        tvld.write_atomic([(1, block(10)), (2000, block(20)), (5, block(30))])
        assert tvld.read_block(1)[0] == block(10)
        assert tvld.read_block(2000)[0] == block(20)
        assert tvld.read_block(5)[0] == block(30)
        tvld.vlog.check_invariants()

    def test_transaction_object_api(self, tvld):
        txn = tvld.begin()
        txn.write(7, block(1))
        txn.write(8, block(2))
        cost = txn.commit()
        assert cost.total > 0
        assert txn.committed
        assert tvld.read_block(7)[0] == block(1)
        with pytest.raises(RuntimeError):
            txn.write(9, block(3))

    def test_context_manager_commits(self, tvld):
        with tvld.begin() as txn:
            txn.write(3, block(3))
        assert tvld.read_block(3)[0] == block(3)

    def test_context_manager_aborts_on_exception(self, tvld):
        tvld.write_block(3, block(1))
        with pytest.raises(ValueError):
            with tvld.begin() as txn:
                txn.write(3, block(99))
                raise ValueError("application error")
        assert tvld.read_block(3)[0] == block(1)

    def test_abort_discards(self, tvld):
        tvld.write_block(3, block(1))
        txn = tvld.begin()
        txn.write(3, block(2))
        txn.abort()
        assert tvld.read_block(3)[0] == block(1)

    def test_last_write_wins_within_txn(self, tvld):
        tvld.write_atomic([(4, block(1)), (4, block(2))])
        assert tvld.read_block(4)[0] == block(2)

    def test_empty_transaction(self, tvld):
        cost = tvld.write_atomic([])
        assert cost.total >= 0

    def test_transaction_spanning_map_chunks(self, tvld):
        # chunk capacity is 112 entries for 512 B records: these lbas live
        # in different chunks, forcing multiple member records.
        lbas = [0, 200, 500, 1000, 3000]
        tvld.write_atomic([(lba, block(lba)) for lba in lbas])
        for lba in lbas:
            assert tvld.read_block(lba)[0] == block(lba)

    def test_space_reclaimed_after_overwrite_txn(self, tvld):
        tvld.write_atomic([(1, block(1)), (2, block(2))])
        free_before = tvld.freemap.free_sectors
        for round_tag in range(10):
            tvld.write_atomic([(1, block(round_tag)), (2, block(round_tag))])
        # Old data blocks and superseded map records recycle; commit slots
        # are reused.  Allow small drift for commit-slot growth.
        assert tvld.freemap.free_sectors >= free_before - 16


class TestCrashInjection:
    def _seed(self, tvld):
        tvld.write_block(10, block(100))
        tvld.write_block(11, block(101))
        tvld.power_down()

    @pytest.mark.parametrize("point", PHASES)
    def test_crash_before_commit_record_rolls_back(self, tvld, point):
        self._seed(tvld)
        txn = tvld.begin()
        txn.write(10, block(200))
        txn.write(11, block(201))
        crash_commit(txn, point)
        tvld.crash()
        tvld.recover()
        # All-or-nothing: neither new value may be visible.
        assert tvld.read_block(10)[0] == block(100)
        assert tvld.read_block(11)[0] == block(101)
        tvld.vlog.check_invariants()

    def test_crash_after_commit_keeps_everything(self, tvld):
        self._seed(tvld)
        tvld.write_atomic([(10, block(200)), (11, block(201))])
        tvld.crash()  # power-down record is stale; scan path
        tvld.recover()
        assert tvld.read_block(10)[0] == block(200)
        assert tvld.read_block(11)[0] == block(201)

    def test_first_write_of_block_rolls_back_to_unmapped(self, tvld):
        txn = tvld.begin()
        txn.write(42, block(9))
        crash_commit(txn, "after_members")
        tvld.crash()
        tvld.recover()
        assert tvld.read_block(42)[0] == bytes(4096)

    def test_space_not_leaked_by_aborted_txn(self, tvld):
        self._seed(tvld)
        txn = tvld.begin()
        txn.write(10, block(200))
        crash_commit(txn, "after_members")
        tvld.crash()
        tvld.recover()
        # The orphaned new data block and member record were reclaimed.
        for lba, physical in tvld.imap.items():
            assert not tvld.freemap.run_is_free(physical * 8, 8)
        used = (
            tvld.disk.total_sectors - tvld.freemap.free_sectors
        ) // 8
        # power-down home + 2 data blocks + map records only.
        assert used < 16

    def test_service_continues_after_rollback(self, tvld):
        self._seed(tvld)
        txn = tvld.begin()
        txn.write(10, block(200))
        crash_commit(txn, "after_data")
        tvld.crash()
        tvld.recover()
        tvld.write_atomic([(10, block(250)), (12, block(251))])
        assert tvld.read_block(10)[0] == block(250)
        tvld.vlog.check_invariants()


class TestRandomizedHistories:
    def test_interleaved_txns_and_writes_with_crashes(self, tvld):
        """A randomized history of plain writes, transactions, commits,
        injected crashes, and recoveries must always match a model that
        applies only the committed operations."""
        rng = random.Random(0xAC1D)
        model = {}
        tag = 0
        for _step in range(60):
            action = rng.random()
            tag += 1
            if action < 0.4:
                lba = rng.randrange(200)
                tvld.write_block(lba, block(tag))
                model[lba] = block(tag)
            elif action < 0.8:
                lbas = rng.sample(range(200), rng.randrange(1, 6))
                tvld.write_atomic([(lba, block(tag)) for lba in lbas])
                for lba in lbas:
                    model[lba] = block(tag)
            else:
                lbas = rng.sample(range(200), rng.randrange(1, 6))
                txn = tvld.begin()
                for lba in lbas:
                    txn.write(lba, block(tag))
                crash_commit(txn, rng.choice(PHASES))
                tvld.crash()
                tvld.recover()
                # model unchanged: the transaction never happened
        for lba in range(200):
            data, _ = tvld.read_block(lba)
            assert data == model.get(lba, bytes(4096)), f"lba {lba}"
        tvld.vlog.check_invariants()

    def test_commit_slot_reuse_bounds_log_growth(self, tvld):
        """Commit records must recycle: many sequential transactions over
        the same blocks cannot grow the set of live commit slots."""
        for round_tag in range(40):
            tvld.write_atomic(
                [(1, block(round_tag)), (2, block(round_tag + 1))]
            )
        live_commits = [
            c for c in tvld.vlog._chunk_location if c >= 0x4000_0000
        ]
        assert len(live_commits) <= 4
