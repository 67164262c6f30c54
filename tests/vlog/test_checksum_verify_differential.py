"""``ChecksumStore.verify`` against the per-sector walk it short-cuts.

A run with no damaged sector whose bytes are the media's is settled by
one compare, and only the sectors that differ are hashed.  The reference
below is the eager verify that hashed every recorded sector through its
own memoryview slice, against the store's ``(sector, crc)`` pairs; both
must name the same sectors on every run: 1-, 8- and 256-sector runs,
reads that differ from the media, unrecorded gaps, zero payloads.
"""

from __future__ import annotations

import random
import zlib

import pytest

from repro.sim.media import MediaImage
from repro.vlog.resilience.checksum import ChecksumStore

SB = 512
#: Room for the highest run a case writes: base < 1000, 256 sectors.
SECTORS = 2048


def _reference_verify(store, sector, count, data):
    """The per-sector verify, as it stood before the split compare, over
    the store's recorded ``(sector, crc)`` pairs."""
    sb = store.sector_bytes
    crcs = dict(store.items())
    span = count * sb
    if len(data) < span:
        raise ValueError("data shorter than the claimed sector run")
    if count == 1:
        crc = crcs.get(sector)
        if crc is None or zlib.crc32(data[:sb]) == crc:
            return []
        return [sector]
    stored = list(map(crcs.get, range(sector, sector + count)))
    unrecorded = stored.count(None)
    if unrecorded == count:
        return []
    if data[:span] == bytes(span):
        zero_crc = zlib.crc32(bytes(sb))
        if stored.count(zero_crc) + unrecorded == count:
            return []
        return [
            sector + i
            for i, crc in enumerate(stored)
            if crc is not None and crc != zero_crc
        ]
    view = memoryview(data)
    return [
        sector + i
        for i, crc in enumerate(stored)
        if crc is not None and zlib.crc32(view[i * sb : (i + 1) * sb]) != crc
    ]


def _payload(rng, count, zero):
    if zero:
        return bytes(count * SB)
    return bytes(rng.randrange(256) for _ in range(count * SB))


def _case(rng, count, written, corrupt, gaps):
    """A store holding ``written`` (zero or not), then the read: the same
    bytes with ``gaps`` sectors never recorded and ``corrupt`` of the
    recorded ones flipped."""
    image = MediaImage(SECTORS * SB)
    store = ChecksumStore(image, SB)
    base = rng.randrange(1000)
    data = bytearray(_payload(rng, count, written == "zero"))
    image.store(base * SB, bytes(data))
    store.record(base, count)
    unrecorded = set(rng.sample(range(count), min(gaps, count)))
    for i in unrecorded:
        store.forget(base + i)
    recorded = [i for i in range(count) if i not in unrecorded]
    for i in rng.sample(recorded, min(corrupt, len(recorded))):
        data[i * SB] ^= 0x5A
    return store, base, bytes(data)


@pytest.mark.parametrize("count", [1, 8, 256])
@pytest.mark.parametrize("written", ["zero", "data"])
@pytest.mark.parametrize("corrupt", [0, 1, 3])
@pytest.mark.parametrize("gaps", [0, 1, 5])
def test_verify_names_the_reference_sectors(count, written, corrupt, gaps):
    rng = random.Random(count * 1009 + corrupt * 31 + gaps)
    for _ in range(4):
        store, base, data = _case(rng, count, written, corrupt, gaps)
        want = _reference_verify(store, base, count, data)
        assert store.verify(base, count, data) == want
        assert store.verify(base, count, memoryview(data)) == want
        assert (want == []) == (corrupt == 0 or gaps >= count)


def test_zero_read_of_recorded_data_names_every_recorded_sector():
    rng = random.Random(7)
    store, base, _data = _case(rng, 8, "data", 0, 2)
    zeros = bytes(8 * SB)
    want = _reference_verify(store, base, 8, zeros)
    assert store.verify(base, 8, zeros) == want
    assert len(want) == 6
