"""``ChecksumStore`` (lazy: a state byte per sector over the image it
guards) against the eager dict store it replaced
(``reference_checksum.py``).

Both stores are driven through the same seeded history over one image:
drive writes (the image takes the bytes, the lazy store marks the run
recorded, the eager one hashes it), torn writes (only a prefix lands),
zero writes, ``forget``, damage behind the drive's back (the lazy store
saves the CRCs the bytes had; the eager one is not told), lost writes
(recorded data damaged to zeros), ``verify`` of the media and of
arbitrary bytes, and ``copy.deepcopy`` and ``pickle`` forks of the image
with its store.  Runs are single sectors, 8-sector blocks and whole
256-sector tracks.  After every step both must agree on every ``verify``
list, on ``recorded`` for the run's sectors, on ``len`` and on
``items()``.
"""

from __future__ import annotations

import copy
import pickle
import random

import pytest

from repro.sim.media import MediaImage
from repro.vlog.resilience.checksum import ChecksumStore
from tests.vlog.reference_checksum import ReferenceChecksumStore

SB = 512
TRACK = 256
SECTORS = 4 * TRACK
RUNS = (1, 1, 8, 8, 8, TRACK)


def _payload(rng: random.Random, count: int) -> bytes:
    shape = rng.random()
    if shape < 0.3:
        return bytes(count * SB)
    if shape < 0.5:
        # Mostly zero with a few non-zero sectors.
        sectors = [bytes(SB)] * count
        for i in rng.sample(range(count), max(1, count // 8)):
            sectors[i] = bytes([rng.randrange(1, 256)]) * SB
        return b"".join(sectors)
    return rng.randbytes(count * SB)


def _agree(store, reference, sector, count) -> None:
    assert len(store) == len(reference)
    assert list(store.items()) == list(reference.items())
    for s in range(sector, sector + count):
        assert store.recorded(s) == reference.recorded(s)


def _write(image, store, reference, sector, data) -> None:
    """A drive write: the bytes land, then both stores hear of them."""
    image.store(sector * SB, data)
    store.record(sector, len(data) // SB)
    reference.record(sector, data)


def _damage(image, store, sector, data) -> None:
    """Bytes changed behind the drive's back: only the lazy store is
    told, and only so that it can keep the CRCs they had."""
    store.damage(sector, len(data) // SB)
    image.store(sector * SB, data)


def _verdicts_agree(store, reference, sector, count, data) -> None:
    assert store.verify(sector, count, data) == reference.verify(sector, count, data)


@pytest.mark.parametrize("seed", range(6))
def test_flat_store_matches_the_dict_store(seed):
    rng = random.Random(seed)
    image = MediaImage(SECTORS * SB)
    store = ChecksumStore(image, SB)
    reference = ReferenceChecksumStore(SB)
    for _ in range(400):
        count = rng.choice(RUNS)
        sector = rng.randrange(SECTORS - count + 1)
        lo, hi = sector * SB, (sector + count) * SB
        roll = rng.random()
        if roll < 0.25:
            data = _payload(rng, count)
            if rng.random() < 0.3:
                data = memoryview(data)
            _write(image, store, reference, sector, data)
        elif roll < 0.32:
            # A torn write: the power fails after a prefix of the run.
            keep = rng.randrange(1, count + 1)
            _write(image, store, reference, sector, _payload(rng, count)[: keep * SB])
        elif roll < 0.37:
            _write(image, store, reference, sector, bytes(count * SB))
        elif roll < 0.45:
            store.forget(sector, count)
            reference.forget(sector, count)
        elif roll < 0.55:
            # Damage: a few bits of a few sectors, the rest as they were.
            damaged = bytearray(image[lo:hi])
            for s in rng.sample(range(count), min(3, count)):
                damaged[s * SB + rng.randrange(SB)] ^= rng.choice((0x01, 0x80, 0xFF))
            _damage(image, store, sector, bytes(damaged))
        elif roll < 0.6:
            # A lost write: recorded data now reads back as zeros.
            _damage(image, store, sector, bytes(count * SB))
        elif roll < 0.65:
            # Damage undone: the sector's old bytes come back.
            _damage(image, store, sector, bytes(image[lo:hi]))
        elif roll < 0.7:
            image, store, reference = copy.deepcopy((image, store, reference))
            assert store._image is image
        elif roll < 0.73:
            image, store, reference = pickle.loads(
                pickle.dumps((image, store, reference))
            )
            assert store._image is image
        elif roll < 0.85:
            _verdicts_agree(store, reference, sector, count, bytes(image[lo:hi]))
        else:
            # Arbitrary bytes: another payload, or the media with a flip.
            data = _payload(rng, count)
            if rng.random() < 0.5:
                flipped = bytearray(image[lo:hi])
                flipped[rng.randrange(len(flipped))] ^= 0x10
                data = bytes(flipped)
            _verdicts_agree(store, reference, sector, count, data)
        _agree(store, reference, sector, count)
    for sector in range(0, SECTORS, TRACK):
        data = bytes(image[sector * SB : (sector + TRACK) * SB])
        _verdicts_agree(store, reference, sector, TRACK, data)


def test_items_are_the_sorted_dict_items():
    image = MediaImage(SECTORS * SB)
    store = ChecksumStore(image, SB)
    reference = ReferenceChecksumStore(SB)
    rng = random.Random(11)
    for sector in rng.sample(range(SECTORS - 8), 40):
        _write(image, store, reference, sector, rng.randbytes(8 * SB))
    for sector in rng.sample(range(SECTORS), 20):
        _damage(image, store, sector, rng.randbytes(SB))
    assert list(store.items()) == sorted(reference._crcs.items())


@pytest.mark.parametrize("sector, count", [(-1, 1), (SECTORS, 1), (SECTORS - 7, 8)])
def test_a_run_outside_the_store_is_refused_and_resizes_nothing(sector, count):
    store = ChecksumStore(MediaImage(SECTORS * SB), SB)
    with pytest.raises(IndexError):
        store.record(sector, count)
    with pytest.raises(IndexError):
        store.damage(sector, count)
    with pytest.raises(IndexError):
        store.forget(sector, count)
    with pytest.raises(IndexError):
        store.verify(sector, count, bytes(count * SB))
    assert len(store._state) == SECTORS
    assert len(store) == 0
    assert not store.recorded(sector)
