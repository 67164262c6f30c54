"""``repro.ufs.bitmap.Bitmap`` (one integer) pinned to the per-bit loops it
replaced (``tests/ufs/reference_bitmap.py``).

Seeded random walks over both implementations; after every step the
observable state (``test``, ``free_count``, ``pack``) and every query
(``find_free``, ``find_free_run``, ``find_frag_run``) must agree -- for
sizes that are not a multiple of a byte or of a block, for goals past the
end, for raw images with junk past ``nbits``, and for full and empty maps.
"""

import random

import pytest

from repro.ufs.bitmap import Bitmap
from tests.ufs.reference_bitmap import ReferenceBitmap

SIZES = (1, 7, 8, 9, 100, 2048)
FPBS = (1, 2, 4, 8)


def _goals(rng, nbits):
    return [0, nbits - 1, nbits, nbits + 3, 5 * nbits + 1] + [
        rng.randrange(2 * nbits + 8) for _ in range(3)
    ]


def _assert_same_state(fast, ref, rng):
    assert fast.free_count == ref.free_count
    assert fast.pack() == ref.pack()
    nbits = ref.nbits
    probes = range(nbits) if nbits <= 100 else rng.sample(range(nbits), 40)
    for index in probes:
        assert fast.test(index) == ref.test(index)


def _assert_same_answers(fast, ref, rng):
    nbits = ref.nbits
    for goal in _goals(rng, nbits):
        assert fast.find_free(goal) == ref.find_free(goal), goal
        for count in {1, 2, 3, 4, 8, nbits, nbits + 1}:
            for align in (1, 2, 4, 5):
                args = (count, align, goal)
                assert fast.find_free_run(*args) == ref.find_free_run(
                    *args
                ), args
        for fpb in FPBS:
            for count in range(1, fpb + 1):
                args = (count, fpb, goal)
                assert fast.find_frag_run(*args) == ref.find_frag_run(
                    *args
                ), args


@pytest.mark.parametrize("nbits", SIZES)
def test_random_walk_matches_reference(nbits):
    rng = random.Random(nbits)
    fast, ref = Bitmap(nbits), ReferenceBitmap(nbits)
    _assert_same_answers(fast, ref, rng)  # the empty map
    steps = 12 if nbits > 100 else 60
    for _ in range(steps):
        start = rng.randrange(nbits)
        count = min(rng.choice((1, 1, 2, 3, 4, 8, 30)), nbits - start)
        used = rng.random() < 0.6
        index, flip = rng.randrange(nbits), rng.random() < 0.5
        if used:
            fast.set_run(start, count)
        else:
            fast.clear_run(start, count)
        for k in range(count):
            (ref.set if used else ref.clear)(start + k)
        for bitmap in (fast, ref):
            (bitmap.set if flip else bitmap.clear)(index)
        _assert_same_state(fast, ref, rng)
        _assert_same_answers(fast, ref, rng)


@pytest.mark.parametrize("nbits", SIZES)
def test_full_and_nearly_full_maps(nbits):
    rng = random.Random(nbits + 1)
    fast, ref = Bitmap(nbits), ReferenceBitmap(nbits)
    fast.set_run(0, nbits)
    for index in range(nbits):
        ref.set(index)
    _assert_same_state(fast, ref, rng)
    _assert_same_answers(fast, ref, rng)
    for index in rng.sample(range(nbits), min(nbits, 5)):
        fast.clear(index)
        ref.clear(index)
        _assert_same_state(fast, ref, rng)
        _assert_same_answers(fast, ref, rng)


@pytest.mark.parametrize("nbits", SIZES)
def test_raw_images_with_junk_past_nbits(nbits):
    rng = random.Random(nbits + 2)
    for _ in range(4):
        raw = bytes(rng.randrange(256) for _ in range((nbits + 7) // 8 + 3))
        fast, ref = Bitmap(nbits, raw), ReferenceBitmap(nbits, raw)
        _assert_same_state(fast, ref, rng)
        _assert_same_answers(fast, ref, rng)
        # The junk survives edits and a pack() round trip, bit for bit.
        index = rng.randrange(nbits)
        fast.set(index)
        ref.set(index)
        assert fast.pack() == ref.pack()
        assert Bitmap(nbits, fast.pack()).pack() == ref.pack()


class TestSafetyChecksSurvive:
    def test_out_of_range_raises_index_error(self):
        bitmap = Bitmap(10)
        for call in (bitmap.test, bitmap.set, bitmap.clear):
            for index in (-1, 10, 11):
                with pytest.raises(IndexError):
                    call(index)
        for call in (bitmap.set_run, bitmap.clear_run):
            for start, count in ((-1, 2), (9, 2), (10, 1), (0, 11)):
                with pytest.raises(IndexError):
                    call(start, count)
            with pytest.raises(ValueError):
                call(0, -1)
            call(3, 0)  # an empty run is a no-op, as the loop was
        assert bitmap.free_count == 10

    def test_find_arguments_still_validated(self):
        bitmap = Bitmap(16)
        for count, align in ((0, 1), (-1, 1), (1, 0)):
            with pytest.raises(ValueError):
                bitmap.find_free_run(count, align)
        for count, fpb in ((0, 4), (5, 4), (-1, 4)):
            with pytest.raises(ValueError):
                bitmap.find_frag_run(count, fpb)
        with pytest.raises(ValueError):
            Bitmap(0)
        with pytest.raises(ValueError):
            Bitmap(16, b"\x00")

    def test_run_edits_are_idempotent_on_the_count(self):
        bitmap = Bitmap(32)
        bitmap.set_run(4, 8)
        bitmap.set_run(8, 8)  # overlaps four already-set bits
        assert bitmap.free_count == 32 - 12
        bitmap.clear_run(0, 10)  # four of these were never set
        assert bitmap.free_count == 32 - 6
