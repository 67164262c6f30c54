"""Untimed media writes for tests: bytes laid on a disk out of band.

A test plants a map record, a bit flip or a garbage power-down record
without the simulated clock, the head or the disk's write counters
moving -- the state a crash or firmware scribble would leave.  The
bytes land through the disk's one media path, so the checksum sidecar
records them and the track buffer forgets the run, as after any write;
:func:`silently_corrupt` alone goes around it, to leave damage the
checksums must catch.  :func:`op_counts` reads back what the disk's
requests counted, for the before/after and identity checks.
"""

#: What a failed power-down leaves in the record's block, repeated.
GARBAGE = b"\xde\xad\xbe\xef"

#: Byte ``b`` -> ``b ^ 0xFF``, for :meth:`bytes.translate`.
_INVERT = bytes(range(255, -1, -1))


def op_counts(disk) -> dict:
    """``disk.counters`` as a dict, fields in declaration order."""
    counters = disk.counters
    return {name: getattr(counters, name) for name in type(counters).__slots__}


def poke(disk, sector: int, data: bytes) -> None:
    """Write sector contents without advancing time."""
    if len(data) % disk.sector_bytes != 0:
        raise ValueError("data must be a whole number of sectors")
    count = len(data) // disk.sector_bytes
    disk._check_run(sector, count)
    if disk._data is None:
        raise RuntimeError("disk was created with store_data=False")
    disk._store(sector, count, data)


def silently_corrupt(disk, sector: int, count: int = 1) -> None:
    """Flip every bit of a sector run *behind the drive's back*: the raw
    image changes but the recorded checksums do not, so the next verified
    read must notice.  (:func:`poke` records the new checksums, hiding the
    damage.)"""
    if disk._data is None:
        raise RuntimeError("disk was created with store_data=False")
    lo = sector * disk.sector_bytes
    hi = lo + count * disk.sector_bytes
    disk._data.store(lo, disk._data[lo:hi].translate(_INVERT))


def corrupt_power_down_record(store) -> None:
    """Damage a ``PowerDownStore``'s record as a failed power-down would."""
    poke(store.disk, store._sector, GARBAGE * (store.block_size // 4))
