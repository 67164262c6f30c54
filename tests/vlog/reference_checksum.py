"""The eager dict-backed checksum store, kept as the differential oracle
of the lazy ``ChecksumStore``.

One dict entry and one int object per written sector, keyed by sector
number, each computed when the sector is written; no size, so it accepts
any sector.  ``record``, ``record_zeros``, ``forget``, ``recorded``,
``verify`` and ``len`` are exactly what they were; ``items`` is the
``sorted(dict.items())`` the identity pins used to hash.
:class:`EagerSidecar` installs it under a disk in the lazy store's place.
"""

from __future__ import annotations

import itertools
import struct
import zlib
from typing import Dict, Iterator, List, Tuple

#: ``(sector_bytes, count) -> Struct`` cutting a run into its sectors.
_SPLITS: Dict[Tuple[int, int], struct.Struct] = {}


def _split(sector_bytes: int, count: int) -> struct.Struct:
    split = _SPLITS.get((sector_bytes, count))
    if split is None:
        split = _SPLITS[sector_bytes, count] = struct.Struct(
            f"{sector_bytes}s" * count
        )
    return split


class ReferenceChecksumStore:
    """CRC32 per physical sector, maintained out-of-band."""

    def __init__(self, sector_bytes: int) -> None:
        if sector_bytes <= 0:
            raise ValueError("sector_bytes must be positive")
        self.sector_bytes = sector_bytes
        self._crcs: Dict[int, int] = {}
        #: CRC of one all-zero sector; every zero sector records this.
        self._zero_crc = zlib.crc32(bytes(sector_bytes))

    def __len__(self) -> int:
        return len(self._crcs)

    def items(self) -> Iterator[Tuple[int, int]]:
        return iter(sorted(self._crcs.items()))

    def record(self, sector: int, data: bytes) -> None:
        sb = self.sector_bytes
        if type(data) is not bytes:
            data = bytes(data)
        n = len(data)
        if data == bytes(n):
            self.record_zeros(sector, n // sb)
            return
        if n == sb:
            self._crcs[sector] = zlib.crc32(data)
            return
        count = n // sb
        self._crcs.update(
            zip(
                range(sector, sector + count),
                map(zlib.crc32, _split(sb, count).unpack_from(data)),
            )
        )

    def record_zeros(self, sector: int, count: int) -> None:
        if count == 1:
            self._crcs[sector] = self._zero_crc
            return
        self._crcs.update(
            zip(range(sector, sector + count), itertools.repeat(self._zero_crc))
        )

    def recorded(self, sector: int) -> bool:
        return sector in self._crcs

    def forget(self, sector: int, count: int = 1) -> None:
        for s in range(sector, sector + count):
            self._crcs.pop(s, None)

    def verify(self, sector: int, count: int, data: bytes) -> List[int]:
        sb = self.sector_bytes
        span = count * sb
        if len(data) < span:
            raise ValueError("data shorter than the claimed sector run")
        if count == 1:
            crc = self._crcs.get(sector)
            if crc is None or zlib.crc32(data[:sb]) == crc:
                return []
            return [sector]
        stored = list(map(self._crcs.get, range(sector, sector + count)))
        unrecorded = stored.count(None)
        if unrecorded == count:
            return []
        if data[:span] == bytes(span):
            zero_crc = self._zero_crc
            if stored.count(zero_crc) + unrecorded == count:
                return []
            return [
                sector + i
                for i, crc in enumerate(stored)
                if crc is not None and crc != zero_crc
            ]
        if not unrecorded:
            if list(map(zlib.crc32, _split(sb, count).unpack_from(data))) == stored:
                return []
        view = memoryview(data)
        crc32 = zlib.crc32
        return [
            sector + i
            for i, crc in enumerate(stored)
            if crc is not None and crc32(view[i * sb : (i + 1) * sb]) != crc
        ]


class EagerSidecar:
    """:class:`ReferenceChecksumStore` with the lazy store's interface,
    for ``disk.checksums``: a drive write hashes the bytes the image now
    holds for the run, and damage is not heard of (the CRCs recorded
    before it stand, as a drive's ECC does)."""

    def __init__(self, image, sector_bytes: int) -> None:
        self.sector_bytes = sector_bytes
        self._image = image
        self.store = ReferenceChecksumStore(sector_bytes)

    def __len__(self) -> int:
        return len(self.store)

    def items(self) -> Iterator[Tuple[int, int]]:
        return self.store.items()

    def record(self, sector: int, count: int) -> None:
        sb = self.sector_bytes
        self.store.record(sector, self._image[sector * sb : (sector + count) * sb])

    def damage(self, sector: int, count: int) -> None:
        pass

    def recorded(self, sector: int) -> bool:
        return self.store.recorded(sector)

    def forget(self, sector: int, count: int = 1) -> None:
        self.store.forget(sector, count)

    def verify(self, sector: int, count: int, data: bytes) -> List[int]:
        return self.store.verify(sector, count, data)
