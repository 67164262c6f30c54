"""Per-sector checksum sidecar: the "CRC envelope" on every written sector.

Real drives lay down out-of-band ECC bytes alongside each sector in the
same head pass; the host never sees them, pays nothing for them, and the
firmware verifies them on every read.  :class:`ChecksumStore` models that:
:meth:`record` is invoked from inside the disk's one media path,
``Disk._store``, under every write (zero simulated time -- the ECC rides
the data transfer) and
:meth:`verify` is called only by the resilience layer's read path, so a
VLD without the layer behaves bit-for-bit as before.

The store survives crashes (real ECC is retained on the media with its
sector, so recovery reads are verified too).  Sectors with no recorded
checksum verify clean (an unwritten sector has no integrity claim), which
is also what makes attaching the store to an already-used disk sound.
"""

from __future__ import annotations

import struct
import zlib
from array import array
from typing import Dict, Iterator, List, Tuple

from repro.sim.media import blank

#: The slot value of a sector with no recorded checksum (a CRC32 is
#: never negative).
_UNRECORDED = -1

#: ``(sector_bytes, count) -> Struct`` cutting a ``count``-sector run into
#: its sectors: a lookup table of constants (as ``entries._ENTRY_STRUCTS``
#: is), filled on first use; a handful of block-size multiples ever occur.
_SPLITS: Dict[Tuple[int, int], struct.Struct] = {}


def _split(sector_bytes: int, count: int) -> struct.Struct:
    split = _SPLITS.get((sector_bytes, count))
    if split is None:
        split = _SPLITS[sector_bytes, count] = struct.Struct(
            f"{sector_bytes}s" * count
        )
    return split


class ChecksumStore:
    """CRC32 per physical sector, maintained out-of-band.

    One ``array('q')`` slot per sector of the image the store guards --
    8 bytes per sector, allocated once -- holding the sector's CRC, or
    ``-1`` for a sector nothing was ever recorded on.  Every store is a
    slice assignment of exactly the run's length, so no write resizes the
    array; a run outside it raises ``IndexError``.
    """

    def __init__(self, sector_bytes: int, sectors: int) -> None:
        if sector_bytes <= 0:
            raise ValueError("sector_bytes must be positive")
        if sectors <= 0:
            raise ValueError("sectors must be positive")
        self.sector_bytes = sector_bytes
        self._crcs = array("q", (_UNRECORDED,)) * sectors
        #: CRC of one all-zero sector; every zero sector records this.
        self._zero_crc = zlib.crc32(bytes(sector_bytes))

    def __len__(self) -> int:
        """Sectors with a recorded checksum."""
        return len(self._crcs) - self._crcs.count(_UNRECORDED)

    def items(self) -> Iterator[Tuple[int, int]]:
        """``(sector, crc)`` for every recorded sector, ascending."""
        for sector, crc in enumerate(self._crcs):
            if crc != _UNRECORDED:
                yield sector, crc

    def record(self, sector: int, data: bytes) -> None:
        """Recompute checksums for the sectors ``data`` just overwrote.

        Called from inside every ``Disk.write`` whose payload the image
        found non-zero (a zero payload goes to :meth:`record_zeros`), so
        the common shapes are fast-pathed: a single sector skips the
        splitting, and a run is cut into sectors by one shared ``Struct``
        and hashed by ``map`` straight into one slice assignment -- the
        same per-sector CRC32s with no Python frame per sector.
        """
        sb = self.sector_bytes
        if type(data) is not bytes:
            # memoryview payloads (zero-copy callers): one bulk copy here
            # is cheaper than hashing sub-views sector by sector.
            data = bytes(data)
        crcs = self._crcs
        count = len(data) // sb
        if not 0 <= sector <= len(crcs) - count:
            raise IndexError(_outside(sector, count, len(crcs)))
        if count == 1:
            crcs[sector] = zlib.crc32(data)
            return
        crcs[sector : sector + count] = array(
            "q", map(zlib.crc32, _split(sb, count).unpack_from(data))
        )

    def record_zeros(self, sector: int, count: int) -> None:
        """Record ``count`` sectors of zeros without touching any data:
        ``Disk._store`` calls this when the image found the payload all
        zeros, so every sector stores the precomputed zero-sector CRC."""
        crcs = self._crcs
        if not 0 <= sector <= len(crcs) - count:
            raise IndexError(_outside(sector, count, len(crcs)))
        if count == 1:
            crcs[sector] = self._zero_crc
            return
        crcs[sector : sector + count] = array("q", (self._zero_crc,)) * count

    def recorded(self, sector: int) -> bool:
        crcs = self._crcs
        return 0 <= sector < len(crcs) and crcs[sector] != _UNRECORDED

    def forget(self, sector: int, count: int = 1) -> None:
        """Drop checksums (e.g. when a sector is quarantined for good)."""
        crcs = self._crcs
        if not 0 <= sector <= len(crcs) - count:
            raise IndexError(_outside(sector, count, len(crcs)))
        crcs[sector : sector + count] = array("q", (_UNRECORDED,)) * count

    def verify(self, sector: int, count: int, data: bytes) -> List[int]:
        """Sectors of ``data`` whose contents contradict their checksum.

        Works a run at a time: the run's stored CRCs are fetched by one
        slice of the array, a run nothing was ever written to returns at
        once, an all-zero payload is settled by counting stored
        zero-sector CRCs, a fully recorded run is cut by :meth:`record`'s
        ``Struct`` and its CRCs compared as one array, and only a mismatch
        or a partly recorded run walks the sectors that have a stored
        CRC, one at a time.
        """
        sb = self.sector_bytes
        span = count * sb
        if len(data) < span:
            raise ValueError("data shorter than the claimed sector run")
        crcs = self._crcs
        if not 0 <= sector <= len(crcs) - count:
            raise IndexError(_outside(sector, count, len(crcs)))
        if count == 1:
            # The recovery traversal reads one map sector at a time.
            crc = crcs[sector]
            if crc == _UNRECORDED or zlib.crc32(data[:sb]) == crc:
                return []
            return [sector]
        stored = crcs[sector : sector + count]
        unrecorded = stored.count(_UNRECORDED)
        if unrecorded == count:
            return []
        if blank(span).startswith(data[:span]):
            # Every sector's computed CRC is the zero-sector constant.
            zero_crc = self._zero_crc
            if stored.count(zero_crc) + unrecorded == count:
                return []
            return [
                sector + i
                for i, crc in enumerate(stored)
                if crc != _UNRECORDED and crc != zero_crc
            ]
        if not unrecorded:
            computed = array("q", map(zlib.crc32, _split(sb, count).unpack_from(data)))
            if computed == stored:
                return []
        view = memoryview(data)
        crc32 = zlib.crc32
        return [
            sector + i
            for i, crc in enumerate(stored)
            if crc != _UNRECORDED and crc32(view[i * sb : (i + 1) * sb]) != crc
        ]


def _outside(sector: int, count: int, sectors: int) -> str:
    return f"sectors [{sector}, {sector + count}) outside a store of {sectors}"

