"""The array-backed ``IndirectionMap`` against the list-backed map it
replaced, through seeded histories.

``reference_imap.py`` is the map as it was before its entries became an
``array`` of unsigned 32-bit words (DESIGN.md section 19).  Both are
driven through the same seeded ``set`` / ``clear`` / ``load_chunk`` /
``load_chunks`` history -- unmapped entries and the largest encodable
block included -- and must agree on every ``get``, every chunk's
entries, ``items`` and ``mapped_count``, and pack every chunk into the
same record bytes.  Rejected calls must raise the same error.
"""

import random

import pytest

from repro.vlog.entries import UNMAPPED, pack_record
from repro.vlog.imap import IndirectionMap
from tests.vlog.reference_imap import ReferenceIndirectionMap

#: The largest physical block a map entry can hold.
LARGEST = UNMAPPED - 1
STEPS = 400


def _entry(rng):
    roll = rng.random()
    if roll < 0.2:
        return UNMAPPED
    if roll < 0.3:
        return LARGEST
    return rng.randrange(LARGEST)


def _chunk_length(imap, chunk_id):
    lo = chunk_id * imap.chunk_capacity
    return min(lo + imap.chunk_capacity, imap.num_logical_blocks) - lo


def _same_error(call_fast, call_reference):
    with pytest.raises(ValueError) as fast:
        call_fast()
    with pytest.raises(ValueError) as reference:
        call_reference()
    assert str(fast.value) == str(reference.value)


def _agree(fast, reference, block_size, seqno):
    for lba in range(fast.num_logical_blocks):
        assert fast.get(lba) == reference.get(lba)
    assert list(fast.items()) == list(reference.items())
    assert fast.mapped_count() == reference.mapped_count()
    for chunk_id in range(fast.num_chunks):
        entries = fast.chunk_entries(chunk_id)
        expected = reference.chunk_entries(chunk_id)
        assert list(entries) == expected
        assert pack_record(
            block_size, chunk_id, seqno, entries, seqno - 1, None, 7
        ) == pack_record(
            block_size, chunk_id, seqno, expected, seqno - 1, None, 7
        )


@pytest.mark.parametrize("block_size, blocks", [(512, 300), (4096, 2100)])
@pytest.mark.parametrize("seed", range(6))
def test_seeded_histories_agree(seed, block_size, blocks):
    rng = random.Random(seed)
    fast = IndirectionMap(blocks, block_size)
    reference = ReferenceIndirectionMap(blocks, block_size)
    assert fast.num_chunks == reference.num_chunks
    for step in range(STEPS):
        roll = rng.random()
        if roll < 0.55:
            lba = rng.randrange(blocks)
            physical = LARGEST if rng.random() < 0.1 else rng.randrange(LARGEST)
            assert fast.set(lba, physical) == reference.set(lba, physical)
        elif roll < 0.75:
            lba = rng.randrange(blocks)
            assert fast.clear(lba) == reference.clear(lba)
        elif roll < 0.9:
            chunk_id = rng.randrange(fast.num_chunks)
            entries = [
                _entry(rng) for _ in range(_chunk_length(fast, chunk_id))
            ]
            fast.load_chunk(chunk_id, entries)
            reference.load_chunk(chunk_id, entries)
        elif roll < 0.95:
            # A recovered map: some chunks, the rest reset to unmapped.
            chunks = {
                chunk_id: [
                    _entry(rng)
                    for _ in range(_chunk_length(fast, chunk_id))
                ]
                for chunk_id in rng.sample(
                    range(fast.num_chunks), rng.randrange(fast.num_chunks + 1)
                )
            }
            fast.load_chunks(chunks)
            reference.load_chunks(chunks)
        else:
            # A chunk carried from one map into the other and back, as
            # the log's relocations and recovery pass them around.
            chunk_id = rng.randrange(fast.num_chunks)
            carried = fast.chunk_entries(chunk_id)
            fast.load_chunk(chunk_id, reference.chunk_entries(chunk_id))
            reference.load_chunk(chunk_id, list(carried))
        if step % 50 == 49:
            _agree(fast, reference, block_size, step + 1)
    _agree(fast, reference, block_size, STEPS + 1)


def test_rejected_calls_raise_the_same_error():
    fast = IndirectionMap(300, 512)
    reference = ReferenceIndirectionMap(300, 512)
    for lba in (-1, 300):
        _same_error(lambda: fast.get(lba), lambda: reference.get(lba))
        _same_error(lambda: fast.set(lba, 1), lambda: reference.set(lba, 1))
        _same_error(lambda: fast.clear(lba), lambda: reference.clear(lba))
    for physical in (-1, UNMAPPED):
        _same_error(
            lambda: fast.set(0, physical), lambda: reference.set(0, physical)
        )
    for chunk_id in (-1, fast.num_chunks):
        _same_error(
            lambda: fast.chunk_entries(chunk_id),
            lambda: reference.chunk_entries(chunk_id),
        )
    _same_error(
        lambda: fast.load_chunk(0, [1, 2, 3]),
        lambda: reference.load_chunk(0, [1, 2, 3]),
    )
