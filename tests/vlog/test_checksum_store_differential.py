"""``ChecksumStore`` (one flat ``array('q')``) against the dict store it
replaced (``reference_checksum.py``).

Both stores are driven through the same seeded sequence of ``record``,
``record_zeros``, ``forget`` and ``verify`` calls over a shared image:
single sectors, 8-sector blocks and whole 256-sector tracks, zero and
non-zero payloads, runs only partly recorded, and sectors flipped in the
image behind the stores' back.  After every call both must agree on
every ``verify`` list, on ``recorded`` for the run's sectors, on ``len``
and on ``items()``; and no write may change the array's length.
"""

from __future__ import annotations

import random

import pytest

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
    assert len(store._crcs) == SECTORS
    assert len(store) == len(reference)
    assert list(store.items()) == list(reference.items())
    for s in range(sector, sector + count):
        assert store.recorded(s) == reference.recorded(s)


@pytest.mark.parametrize("seed", range(6))
def test_flat_store_matches_the_dict_store(seed):
    rng = random.Random(seed)
    store = ChecksumStore(SB, SECTORS)
    reference = ReferenceChecksumStore(SB)
    image = bytearray(SECTORS * SB)
    for _ in range(400):
        count = rng.choice(RUNS)
        sector = rng.randrange(SECTORS - count + 1)
        lo, hi = sector * SB, (sector + count) * SB
        roll = rng.random()
        if roll < 0.35:
            data = _payload(rng, count)
            image[lo:hi] = data
            view = memoryview(data) if rng.random() < 0.3 else data
            store.record(sector, view)
            reference.record(sector, data)
        elif roll < 0.45:
            image[lo:hi] = bytes(count * SB)
            store.record_zeros(sector, count)
            reference.record_zeros(sector, count)
        elif roll < 0.55:
            store.forget(sector, count)
            reference.forget(sector, count)
        elif roll < 0.65:
            # Behind the stores' back: the image changes, no CRC does.
            for s in rng.sample(range(sector, sector + count), min(3, count)):
                at = s * SB + rng.randrange(SB)
                image[at] ^= rng.choice((0x01, 0x80, 0xFF))
        elif roll < 0.7:
            # A lost write: recorded data now reads back as zeros.
            image[lo:hi] = bytes(count * SB)
        else:
            data = bytes(image[lo:hi])
            assert store.verify(sector, count, data) == reference.verify(
                sector, count, data
            )
        _agree(store, reference, sector, count)
    for sector in range(0, SECTORS, TRACK):
        data = bytes(image[sector * SB : (sector + TRACK) * SB])
        assert store.verify(sector, TRACK, data) == reference.verify(
            sector, TRACK, data
        )


def test_items_are_the_sorted_dict_items():
    store = ChecksumStore(SB, SECTORS)
    reference = ReferenceChecksumStore(SB)
    rng = random.Random(11)
    for sector in rng.sample(range(SECTORS - 8), 40):
        data = rng.randbytes(8 * SB)
        store.record(sector, data)
        reference.record(sector, data)
    assert list(store.items()) == sorted(reference._crcs.items())


@pytest.mark.parametrize("sector, count", [(-1, 1), (SECTORS, 1), (SECTORS - 7, 8)])
def test_a_run_outside_the_store_is_refused_and_resizes_nothing(sector, count):
    store = ChecksumStore(SB, SECTORS)
    with pytest.raises(IndexError):
        store.record(sector, b"\x01" * (count * SB))
    with pytest.raises(IndexError):
        store.record_zeros(sector, count)
    with pytest.raises(IndexError):
        store.forget(sector, count)
    with pytest.raises(IndexError):
        store.verify(sector, count, bytes(count * SB))
    assert len(store._crcs) == SECTORS
    assert len(store) == 0
    assert not store.recorded(sector)
