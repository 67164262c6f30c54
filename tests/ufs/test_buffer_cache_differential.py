"""``repro.ufs.buffer_cache.BufferCache`` (a layer over the shared
``repro.fs.block_cache.BlockCache``) pinned to the class it replaced
(``tests/ufs/reference_buffer_cache.py``).

The victim of a full cache is written back if it is dirty and decides a
later device read either way, so the two must not merely hold equivalent
contents: after every step the key order, every returned block and
breakdown, the hit/miss counters, the dirty set and the device calls
each side issued (eviction write-backs and flush coalescing included)
must be identical.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.stats import Breakdown
from repro.ufs.buffer_cache import BufferCache
from tests.ufs.reference_buffer_cache import ReferenceBufferCache

BLOCK = 16  # the cache never looks inside a block
LBAS = 40


class _RecordingDevice:
    """An in-memory device that logs every call made of it; each call
    costs one distinct breakdown, so a dropped or doubled cost shows."""

    block_size = BLOCK

    def __init__(self) -> None:
        self.blocks = {}
        self.calls = []

    def _cost(self) -> Breakdown:
        return Breakdown(transfer=float(len(self.calls)))

    def read_block(self, lba):
        self.calls.append(("read_block", lba))
        return self.blocks.get(lba, bytes(BLOCK)), self._cost()

    def read_blocks(self, lba, count):
        self.calls.append(("read_blocks", lba, count))
        data = b"".join(
            self.blocks.get(lba + i, bytes(BLOCK)) for i in range(count)
        )
        return data, self._cost()

    def write_block(self, lba, data):
        self.calls.append(("write_block", lba, bytes(data)))
        self.blocks[lba] = bytes(data)
        return self._cost()

    def write_blocks(self, lba, count, data):
        self.calls.append(("write_blocks", lba, count, bytes(data)))
        for i in range(count):
            self.blocks[lba + i] = bytes(data[i * BLOCK : (i + 1) * BLOCK])
        return self._cost()

    def write_partial(self, lba, offset, data):
        self.calls.append(("write_partial", lba, offset, bytes(data)))
        old = self.blocks.get(lba, bytes(BLOCK))
        self.blocks[lba] = old[:offset] + bytes(data) + old[offset + len(data):]
        return self._cost()


def _pair(capacity):
    fast = BufferCache(_RecordingDevice(), capacity * BLOCK)
    ref = ReferenceBufferCache(_RecordingDevice(), capacity * BLOCK)
    return fast, ref


def _state(cache):
    entries = cache._entries
    return (
        [(lba, bytes(e.data), e.dirty) for lba, e in entries.items()],
        cache.hits,
        cache.misses,
        cache.device.calls,
    )


def _assert_same(fast, ref):
    assert _state(fast) == _state(ref)
    assert list(fast) == list(ref._entries)
    assert fast.dirty_blocks == ref.dirty_count
    assert {lba for lba in fast if fast._entries[lba].dirty} == {
        lba for lba in ref._entries if ref.is_dirty(lba)
    }


def _apply(cache, op, serial):
    """Run one step; returns what the call returned, bytes normalised."""
    name, args = op[0], op[1:]
    if name in ("write", "write_partial"):
        payload = bytes([serial % 256]) * (BLOCK if name == "write" else args[2])
        if name == "write":
            return cache.write(args[0], payload, sync=args[1])
        lba, offset, _, sync, fresh = args
        return cache.write_partial(lba, offset, payload, sync, fresh=fresh)
    if name == "forget":
        method = cache.forget if isinstance(cache, BufferCache) else cache.invalidate
        return method(*args)
    result = getattr(cache, name)(*args)
    if name == "read":
        data, breakdown = result
        return bytes(data), breakdown
    return result


_LBA = st.integers(min_value=0, max_value=LBAS - 1)


@st.composite
def _partial(draw):
    offset = draw(st.integers(min_value=0, max_value=BLOCK - 1))
    length = draw(st.integers(min_value=1, max_value=BLOCK - offset))
    return ("write_partial", draw(_LBA), offset, length, draw(st.booleans()),
            draw(st.booleans()))


_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("read"), _LBA),
        st.tuples(st.just("write"), _LBA, st.booleans()),
        _partial(),
        st.tuples(st.just("populate_run"),
                  st.integers(min_value=0, max_value=LBAS - 4),
                  st.integers(min_value=1, max_value=4)),
        st.tuples(st.sampled_from(["flush_block", "forget"]), _LBA),
        st.tuples(st.sampled_from(["flush", "drop_clean"])),
    ),
    max_size=120,
)


@given(ops=_OPS, capacity=st.integers(min_value=4, max_value=16))
@settings(max_examples=200, deadline=None)
def test_any_interleaving_matches_the_reference(ops, capacity):
    fast, ref = _pair(capacity)
    for serial, op in enumerate(ops):
        assert _apply(fast, op, serial) == _apply(ref, op, serial)
        _assert_same(fast, ref)


@pytest.mark.parametrize("capacity", [4, 7, 16])
def test_long_seeded_walk_at_capacity(capacity):
    """Mostly async writes over three times the capacity, so the cache
    sits full and writes a dirty victim back on nearly every miss."""
    rng = random.Random(capacity)
    fast, ref = _pair(capacity)
    for serial in range(3000):
        lba = rng.randrange(3 * capacity)
        name = rng.choices(
            ["read", "write", "write_partial", "populate_run", "flush_block",
             "forget", "flush", "drop_clean"],
            weights=[25, 30, 15, 5, 10, 5, 2, 1],
        )[0]
        if name == "read" or name == "flush_block" or name == "forget":
            op = (name, lba)
        elif name == "write":
            op = (name, lba, rng.random() < 0.2)
        elif name == "write_partial":
            offset = rng.randrange(BLOCK)
            op = (name, lba, offset, rng.randint(1, BLOCK - offset),
                  rng.random() < 0.2, rng.random() < 0.3)
        elif name == "populate_run":
            op = (name, lba, rng.randint(1, 4))
        else:
            op = (name,)
        assert _apply(fast, op, serial) == _apply(ref, op, serial)
        _assert_same(fast, ref)


def test_a_dirty_victim_is_written_back_and_a_clean_one_dropped():
    """The cold end leaves first, once the missed block has been read,
    and is written back only if dirty; a flush coalesces the contiguous
    dirty run into one command."""
    fast, ref = _pair(4)
    for cache in (fast, ref):
        cache.write(1, b"a" * BLOCK, sync=False)
        cache.write(2, b"b" * BLOCK, sync=True)
        cache.write(3, b"c" * BLOCK, sync=False)
        cache.write(4, b"d" * BLOCK, sync=False)
        cache.read(9)
        cache.read(8)
        cache.flush()
    _assert_same(fast, ref)
    assert [call[:2] for call in fast.device.calls] == [
        ("write_block", 2),  # the sync write goes through
        ("read_block", 9),
        ("write_block", 1),  # victim 1 is dirty: written back
        ("read_block", 8),  # victim 2 was clean: dropped
        ("write_blocks", 3),  # 3 and 4, one command
    ]
