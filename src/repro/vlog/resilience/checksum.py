"""Per-sector checksum sidecar: the "CRC envelope" on every written sector.

Real drives lay down out-of-band ECC bytes alongside each sector in the
same head pass; the host never sees them, pays nothing for them, and the
firmware verifies them on every read.  :class:`ChecksumStore` models that
at the cost a drive's host pays, which is nothing until the media is
damaged: :meth:`record` is invoked from inside the disk's one media path,
``Disk._store``, under every write, and hashes nothing -- the CRC of a
sector the drive wrote is the CRC of the bytes the image holds for it.
Only ``Disk.damage``, the one way bytes change behind the drive's back,
makes the store save a CRC (:meth:`damage`), and only :meth:`verify` on
a damaged sector, or on bytes other than the media's, computes one.
:meth:`verify` is called only by the resilience layer's read path and
``vlfsck``, so a VLD without the layer behaves bit-for-bit as before.

The store survives crashes (real ECC is retained on the media with its
sector, so recovery reads are verified too).  Sectors with no recorded
checksum verify clean (an unwritten sector has no integrity claim), which
is also what makes attaching the store to an already-used disk sound.
"""

from __future__ import annotations

import zlib
from typing import Dict, Iterator, List, Tuple

#: A sector's state byte: nothing recorded, recorded (its CRC is that of
#: the image's bytes), or damaged (its CRC is the one saved before).
_UNRECORDED, _RECORDED, _DAMAGED = 0, 1, 2


class ChecksumStore:
    """CRC32 per physical sector of ``image``, maintained out-of-band.

    One state byte per sector of the image, allocated once, and a dict of
    the CRCs saved for damaged sectors only.  A run outside the image
    raises ``IndexError``.
    """

    def __init__(self, image, sector_bytes: int) -> None:
        if sector_bytes <= 0:
            raise ValueError("sector_bytes must be positive")
        self.sector_bytes = sector_bytes
        self._image = image
        self._state = bytearray(len(image) // sector_bytes)
        #: ``sector -> CRC`` of a damaged sector's bytes before the damage.
        self._saved: Dict[int, int] = {}

    def __len__(self) -> int:
        """Sectors with a recorded checksum."""
        return len(self._state) - self._state.count(_UNRECORDED)

    def _crc_of(self, sector: int) -> int:
        if self._state[sector] == _DAMAGED:
            return self._saved[sector]
        sb = self.sector_bytes
        return zlib.crc32(self._image[sector * sb : (sector + 1) * sb])

    def items(self) -> Iterator[Tuple[int, int]]:
        """``(sector, crc)`` for every recorded sector, ascending."""
        for sector, mark in enumerate(self._state):
            if mark != _UNRECORDED:
                yield sector, self._crc_of(sector)

    def _check(self, sector: int, count: int) -> bytearray:
        """The state bytes, once ``[sector, sector + count)`` is known to
        lie within them."""
        state = self._state
        if not 0 <= sector <= len(state) - count:
            raise IndexError(
                f"sectors [{sector}, {sector + count}) outside a store of "
                f"{len(state)}"
            )
        return state

    def _undamage(self, sector: int, count: int) -> None:
        """Drop the saved CRCs of the run's damaged sectors."""
        if self._state.find(_DAMAGED, sector, sector + count) >= 0:
            for s in range(sector, sector + count):
                self._saved.pop(s, None)

    def record(self, sector: int, count: int) -> None:
        """The drive just wrote ``count`` sectors at ``sector``: their
        checksums are now those of the image's bytes, and no damage
        mark stands on them."""
        state = self._state
        if not 0 <= sector <= len(state) - count:
            self._check(sector, count)  # names what is wrong, and raises
        if self._saved:
            self._undamage(sector, count)
        if count == 1:
            state[sector] = _RECORDED
        else:
            state[sector : sector + count] = b"\x01" * count

    def damage(self, sector: int, count: int) -> None:
        """The run's bytes are about to change behind the drive's back:
        save the CRC of each recorded sector's current bytes, which the
        damage leaves standing.  A sector already damaged keeps the CRC
        saved before; an unrecorded one stays without a claim."""
        state = self._check(sector, count)
        for s in range(sector, sector + count):
            if state[s] == _RECORDED:
                self._saved[s] = self._crc_of(s)
                state[s] = _DAMAGED

    def recorded(self, sector: int) -> bool:
        state = self._state
        return 0 <= sector < len(state) and state[sector] != _UNRECORDED

    def forget(self, sector: int, count: int = 1) -> None:
        """Drop checksums (e.g. when a sector is quarantined for good)."""
        state = self._check(sector, count)
        self._undamage(sector, count)
        state[sector : sector + count] = bytes(count)

    def verify(self, sector: int, count: int, data: bytes) -> List[int]:
        """Sectors of ``data`` whose contents contradict their checksum.

        With no damaged sector in the run and ``data`` equal to the
        image's bytes -- every read of media no one damaged -- that is one
        ``find`` and one compare, and nothing is hashed.  Otherwise only
        the damaged sectors and the recorded ones whose bytes differ
        from the media's are hashed.
        """
        sb = self.sector_bytes
        span = count * sb
        if len(data) < span:
            raise ValueError("data shorter than the claimed sector run")
        state = self._state
        if not 0 <= sector <= len(state) - count:
            self._check(sector, count)  # names what is wrong, and raises
        end = sector + count
        lo = sector * sb
        image = self._image
        if (
            not self._saved or state.find(_DAMAGED, sector, end) < 0
        ) and image[lo : lo + span] == data:
            return []
        view = memoryview(data)
        crc32 = zlib.crc32
        bad = []
        for i, mark in enumerate(state[sector:end]):
            if mark == _UNRECORDED:
                continue
            got = view[i * sb : (i + 1) * sb]
            if mark == _DAMAGED:
                if crc32(got) != self._saved[sector + i]:
                    bad.append(sector + i)
                continue
            media = image[lo + i * sb : lo + (i + 1) * sb]
            if got != media and crc32(got) != crc32(media):
                bad.append(sector + i)
        return bad
