"""``repro.lfs.nvram.FileCache`` (a dirty counter, a per-inode dirty index,
a bounded victim walk) pinned to the scan-everything cache it replaced
(``tests/lfs/reference_filecache.py``).

Which clean block is evicted decides a later disk read, so the two must
not merely hold equivalent contents: after every step the *key order*
(hence every eviction victim, in sequence), every ``get`` result, the
hit/miss counters and the dirty listings must be identical.
"""

import random
from collections import OrderedDict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lfs.nvram import FileCache
from tests.lfs.reference_filecache import ReferenceFileCache

BLOCK = 16  # the caches never look inside a block

_KEYS = st.tuples(
    st.integers(min_value=1, max_value=4), st.integers(min_value=-3, max_value=6)
)
_OPS = st.lists(
    st.one_of(
        st.tuples(
            st.sampled_from(
                ["get", "put_clean", "put_dirty", "put_dirty", "mark_clean", "forget"]
            ),
            _KEYS,
        ),
        st.tuples(
            st.just("forget_inode"), st.integers(min_value=1, max_value=4)
        ),
        st.tuples(st.sampled_from(["drop_clean", "crash"]), st.none()),
    ),
    max_size=120,
)


def _pair(capacity, nvram=False):
    args = dict(capacity_bytes=capacity * BLOCK, block_size=BLOCK, nvram=nvram)
    return FileCache(**args), ReferenceFileCache(**args)


def _assert_same(fast, ref):
    assert list(fast) == list(ref)  # LRU order: victims so far were the same
    assert fast.dirty_items() == ref.dirty_items()
    assert fast.dirty_blocks == ref.dirty_blocks
    assert len(list(fast)) == ref.total_blocks
    assert (len(list(fast)) >= fast.capacity_blocks) == ref.full
    assert (fast.hits, fast.misses) == (ref.hits, ref.misses)
    for inum in range(1, 5):
        assert fast.dirty_items_for(inum) == ref.dirty_items_for(inum)
    for extra in (0, 1, 3):
        assert fast.would_overflow(extra) == ref.would_overflow(extra)


def _apply(cache, op, arg, serial):
    if op in ("put_clean", "put_dirty"):
        return getattr(cache, op)(arg, bytes([serial % 256]) * BLOCK)
    if arg is None:
        return getattr(cache, op)()
    return getattr(cache, op)(arg)


@given(
    ops=_OPS,
    capacity=st.integers(min_value=4, max_value=16),
    nvram=st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_any_interleaving_matches_the_reference(ops, capacity, nvram):
    fast, ref = _pair(capacity, nvram)
    for serial, (op, arg) in enumerate(ops):
        assert _apply(fast, op, arg, serial) == _apply(ref, op, arg, serial)
        _assert_same(fast, ref)


@pytest.mark.parametrize("capacity", [4, 7, 16])
def test_long_seeded_walk_at_capacity(capacity):
    """Mostly inserts, so the caches sit at capacity and evict on nearly
    every step, with cleanings and re-dirtyings scattered through."""
    rng = random.Random(capacity)
    fast, ref = _pair(capacity)
    for serial in range(3000):
        key = (rng.randrange(1, 4), rng.randrange(0, 3 * capacity))
        op = rng.choices(
            ["put_clean", "put_dirty", "get", "mark_clean", "forget",
             "forget_inode", "drop_clean"],
            weights=[30, 20, 20, 20, 5, 1, 1],
        )[0]
        arg = key[0] if op == "forget_inode" else key
        arg = None if op == "drop_clean" else arg
        assert _apply(fast, op, arg, serial) == _apply(ref, op, arg, serial)
        _assert_same(fast, ref)


def test_entry_cleaned_in_the_middle_keeps_its_lru_position():
    """The case a separate list of clean keys would get wrong: (1, 1)
    becomes clean *between* two older-and-newer clean entries, and must
    be evicted after (1, 0) and before (1, 2)."""
    fast, ref = _pair(4)
    for cache in (fast, ref):
        cache.put_clean((1, 0), b"a" * BLOCK)
        cache.put_dirty((1, 1), b"b" * BLOCK)
        cache.put_clean((1, 2), b"c" * BLOCK)
        cache.put_dirty((1, 3), b"d" * BLOCK)
        cache.mark_clean((1, 1))
    _assert_same(fast, ref)
    victims = []
    for fblk in (10, 11, 12):
        before = list(fast)
        for cache in (fast, ref):
            cache.put_clean((2, fblk), b"n" * BLOCK)
        victims += [key for key in before if key not in fast]
        _assert_same(fast, ref)
    assert victims == [(1, 0), (1, 1), (1, 2)]
    assert (1, 3) in fast  # dirty: clean pressure never evicts it


class _CountingOrder(OrderedDict):
    """An ``OrderedDict`` that counts the entries an iteration visits."""

    visited = 0

    def items(self):
        for item in super().items():
            type(self).visited += 1
            yield item

    def __iter__(self):
        for key in super().__iter__():
            type(self).visited += 1
            yield key

    def values(self):
        for value in super().values():
            type(self).visited += 1
            yield value


def test_eviction_visits_the_dirty_prefix_and_the_victims_only():
    capacity, prefix = 400, 150
    cache = FileCache(capacity * BLOCK, BLOCK)
    counting = _CountingOrder()
    cache._entries = counting
    for fblk in range(prefix):
        cache.put_dirty((1, fblk), bytes(BLOCK))
    for fblk in range(capacity - prefix):
        cache.put_clean((2, fblk), bytes(BLOCK))
    assert len(counting) == capacity and cache.dirty_blocks == prefix
    inserts = 50
    _CountingOrder.visited = 0
    for fblk in range(inserts):
        cache.put_clean((3, fblk), bytes(BLOCK))
        assert not cache.would_overflow(1)  # counted, not scanned
    assert (2, inserts - 1) not in cache and (2, inserts) in cache
    assert _CountingOrder.visited <= inserts * (prefix + 1)
    # ... and with no clean entry left there is nothing to walk to.
    full = FileCache(8 * BLOCK, BLOCK)
    full._entries = _CountingOrder()
    for fblk in range(8):
        full.put_dirty((1, fblk), bytes(BLOCK))
    _CountingOrder.visited = 0
    full.put_dirty((1, 99), bytes(BLOCK))
    full.put_clean((1, 100), bytes(BLOCK))
    assert _CountingOrder.visited == 0 and (1, 100) not in full


def test_dirty_listing_for_one_inode_does_not_walk_the_cache():
    cache = FileCache(512 * BLOCK, BLOCK)
    cache._entries = _CountingOrder()
    for fblk in range(400):
        cache.put_clean((1, fblk), bytes(BLOCK))
    for fblk in (7, 3, 5):
        cache.put_dirty((2, fblk), bytes(BLOCK))
    cache.get((2, 7))  # most recently used: listed last
    _CountingOrder.visited = 0
    assert [key for key, _ in cache.dirty_items_for(2)] == [
        (2, 3), (2, 5), (2, 7)
    ]
    assert cache.dirty_items_for(1) == []
    assert cache.dirty_blocks == 3
    assert _CountingOrder.visited == 0


def test_nvram_cache_survives_a_crash_with_its_dirty_count_right():
    fast, ref = _pair(8, nvram=True)
    for cache in (fast, ref):
        cache.put_dirty((1, 0), b"x" * BLOCK)
        cache.put_clean((1, 1), b"y" * BLOCK)
        cache.put_dirty((2, 0), b"z" * BLOCK)
        cache.crash()
    _assert_same(fast, ref)
    assert fast.dirty_blocks == 2
    assert [key for key, _ in fast.dirty_items_for(2)] == [(2, 0)]
    volatile, _ = _pair(8)
    volatile.put_dirty((1, 0), b"x" * BLOCK)
    volatile.crash()
    assert volatile.dirty_blocks == 0 and volatile.dirty_items_for(1) == []
    volatile.put_dirty((1, 0), b"x" * BLOCK)
    assert volatile.dirty_blocks == 1
