"""``pack_record`` against the serialiser it replaced, byte for byte.

``reference_record.py`` is the body ``MapRecord.pack`` had before the
record image was built once (DESIGN.md section 19).  The log's append path
now calls :func:`repro.vlog.entries.pack_record` with the fields in hand,
so the two must produce the same block for every entry count from none to capacity, every
``None``/non-``None`` pointer pattern, standalone and transaction records,
at both record sizes in use (512-byte map sectors, 4096-byte blocks) --
and reject one entry too many with the same message.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.vlog.entries import (
    COMMIT_CHUNK_BASE,
    UNMAPPED,
    MapRecord,
    entries_per_chunk,
    pack_record,
)
from tests.vlog.reference_record import reference_pack

BLOCK_SIZES = (512, 4096)
_POINTER = st.one_of(st.none(), st.integers(0, 2**40))


def _both(block_size, record):
    image = pack_record(
        block_size,
        record.chunk_id,
        record.seqno,
        record.entries,
        record.prev_root,
        record.bypass1,
        record.bypass2,
        record.txn_id,
    )
    assert image == reference_pack(record, block_size)
    assert len(image) == block_size
    return image


@pytest.mark.parametrize("block_size", BLOCK_SIZES)
def test_every_entry_count_and_pointer_pattern(block_size):
    capacity = entries_per_chunk(block_size)
    patterns = list(itertools.product((None, 7, 123456), repeat=3))
    for n in range(capacity + 1):
        entries = [(n * 2654435761 + i * 40503) % UNMAPPED for i in range(n)]
        for k, (prev, b1, b2) in enumerate(patterns):
            if n % 16 and k % 9:  # every pattern at some counts, some at all
                continue
            record = MapRecord(
                chunk_id=n, seqno=n * 31 + k, entries=entries,
                prev_root=prev, bypass1=b1, bypass2=b2, txn_id=k % 2 * (n + 1),
            )
            image = _both(block_size, record)
            assert MapRecord.unpack(image) == record


@given(
    block_size=st.sampled_from(BLOCK_SIZES),
    chunk_id=st.one_of(
        st.integers(0, 2**20),
        st.integers(COMMIT_CHUNK_BASE, COMMIT_CHUNK_BASE + 1000),
    ),
    seqno=st.integers(0, 2**62),
    entries=st.lists(st.integers(0, UNMAPPED), max_size=1016),
    prev_root=_POINTER,
    bypass1=_POINTER,
    bypass2=_POINTER,
    txn_id=st.one_of(st.just(0), st.integers(1, 2**32 - 1)),
)
@settings(max_examples=300, deadline=None)
def test_random_records_pack_identically(
    block_size, chunk_id, seqno, entries, prev_root, bypass1, bypass2, txn_id
):
    entries = entries[: entries_per_chunk(block_size)]
    record = MapRecord(
        chunk_id, seqno, entries, prev_root, bypass1, bypass2, txn_id
    )
    assert MapRecord.unpack(_both(block_size, record)) == record


@pytest.mark.parametrize("block_size", BLOCK_SIZES)
def test_one_entry_over_is_rejected_alike(block_size):
    capacity = entries_per_chunk(block_size)
    record = MapRecord(chunk_id=0, seqno=1, entries=[1] * (capacity + 1))
    message = f"{capacity + 1} entries exceed capacity {capacity}"
    with pytest.raises(ValueError, match=message):
        reference_pack(record, block_size)
    with pytest.raises(ValueError, match=message):
        pack_record(block_size, 0, 1, record.entries)


def test_entries_may_be_any_sequence():
    """The append path hands over the map's own slice; a tuple or a range
    packs the same."""
    image = pack_record(512, 3, 9, [5, 6, 7], 1, None, 2, 0)
    assert pack_record(512, 3, 9, (5, 6, 7), 1, None, 2, 0) == image
    assert pack_record(512, 3, 9, range(5, 8), 1, None, 2, 0) == image


def test_a_block_too_small_for_a_record_is_still_rejected():
    with pytest.raises(ValueError, match="too small for a map record"):
        pack_record(56, 0, 1, [])
