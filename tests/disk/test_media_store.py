"""``MediaImage.store``: zero pages over zero media stay unmapped.

The differential half drives random mixes through every way bytes reach
an image -- ``Disk.write``, ``Disk.write_run`` (both of its paths) and
``NVMDevice.store``/``flush``/``format`` -- and compares everything a
reader can see against a ``bytearray`` oracle: each read and ``peek``,
the written-page runs a fork carries, and the checksum sidecar's records
and verdicts.  The payloads are whole-zero, partly zero across pages and
non-zero, in ragged and page-aligned runs, over fresh media and over
media written before, so every branch of the page rule meets both kinds
of media under it.

The resident-page half writes 16 MiB of zero blocks and 3 MiB of
segment-shaped runs (one non-zero page, then zero pages) into a fresh disk and reads
the image mapping's ``Rss`` from ``/proc/self/smaps``: the zeros must
not become resident.
"""

import ctypes
import mmap
import os
import random
import zlib

import pytest

from repro.blockdev.nvm import NVM_SPECS, NVMDevice
from repro.disk.disk import Disk
from repro.disk.specs import ST19101
from repro.sim.clock import SimClock
from repro.vlog.resilience.checksum import ChecksumStore

PAGE = mmap.PAGESIZE
SB = ST19101.sector_bytes
BLOCK_SECTORS = 8
#: Runs land in the first this-many sectors, so later runs overwrite.
HOT_SECTORS = 1024


def _oracle_runs(buf: bytearray):
    """``MediaImage._written_runs`` of an image holding ``buf``."""
    runs = []
    start = None
    zero = bytes(PAGE)
    for lo in range(0, len(buf), PAGE):
        written = buf[lo : lo + PAGE] != zero[: len(buf[lo : lo + PAGE])]
        if written and start is None:
            start = lo
        elif not written and start is not None:
            runs.append((start, bytes(buf[start:lo])))
            start = None
    if start is not None:
        runs.append((start, bytes(buf[start:])))
    return tuple(runs)


def _payload(rng: random.Random, nbytes: int):
    """Whole-zero (``None`` or bytes), non-zero, or zero and non-zero
    pieces of random lengths -- a partly zero multi-page payload."""
    kind = rng.randrange(4)
    if kind == 0:
        return None
    if kind == 1:
        return bytes(nbytes)
    if kind == 2:
        return rng.randbytes(nbytes)
    out = bytearray()
    while len(out) < nbytes:
        piece = rng.choice((PAGE // 2, PAGE, 2 * PAGE, SB))
        if rng.random() < 0.6:
            out += bytes(piece)
        else:
            chunk = bytearray(piece)
            chunk[rng.randrange(piece)] = rng.randrange(1, 256)
            out += chunk
    return bytes(out[:nbytes])


def _run(rng: random.Random, aligned: bool):
    """``(sector, count)``: block-aligned whole blocks, or ragged."""
    if aligned:
        count = BLOCK_SECTORS * rng.randrange(1, 9)
        sector = BLOCK_SECTORS * rng.randrange((HOT_SECTORS - count) // BLOCK_SECTORS)
    else:
        count = rng.randrange(1, 3 * PAGE // SB + 2)
        sector = rng.randrange(HOT_SECTORS - count)
    return sector, count


@pytest.mark.parametrize("seed", range(12))
def test_disk_writes_match_a_bytearray_oracle(seed):
    rng = random.Random(seed)
    disk = Disk(ST19101, num_cylinders=1)
    disk.checksums = ChecksumStore(disk._data, SB)
    oracle = bytearray(disk.geometry.capacity_bytes)
    crcs = {}
    for step in range(120):
        aligned = rng.random() < 0.5
        sector, count = _run(rng, aligned)
        data = _payload(rng, count * SB)
        if aligned and rng.random() < 0.5:
            disk.write_run(sector, count, BLOCK_SECTORS, data)
        else:
            disk.write(sector, count, data)
        lo, hi = sector * SB, (sector + count) * SB
        oracle[lo:hi] = bytes(count * SB) if data is None else data
        for s in range(sector, sector + count):
            crcs[s] = zlib.crc32(oracle[s * SB : (s + 1) * SB])

        # Reads and peeks of a random run, and the sidecar's verdicts on
        # the run as stored and with one sector flipped.
        sector, count = _run(rng, rng.random() < 0.5)
        lo, hi = sector * SB, (sector + count) * SB
        data, _ = disk.read(sector, count)
        assert bytes(data) == oracle[lo:hi]
        assert disk.peek(sector, count) == oracle[lo:hi]
        assert disk.checksums.verify(sector, count, data) == []
        bad = rng.randrange(sector, sector + count)
        flipped = bytearray(data)
        flipped[(bad - sector) * SB] ^= 0xFF
        want = [bad] if bad in crcs else []
        assert disk.checksums.verify(sector, count, bytes(flipped)) == want
        if step % 20 == 19:
            assert disk._data._written_runs() == _oracle_runs(oracle)
            assert dict(disk.checksums.items()) == crcs
    assert disk._data[:] == oracle
    assert disk._data._written_runs() == _oracle_runs(oracle)
    assert dict(disk.checksums.items()) == crcs


@pytest.mark.parametrize("seed", range(8))
def test_nvm_stores_match_a_bytearray_oracle(seed):
    rng = random.Random(seed)
    spec = NVM_SPECS["nvdimm"].with_overrides(capacity_bytes=64 * PAGE)
    nvm = NVMDevice(spec, SimClock())
    persisted = bytearray(spec.capacity_bytes)
    pending = []
    for _ in range(150):
        nbytes = rng.choice((rng.randrange(1, 3 * PAGE), PAGE, 4 * PAGE))
        offset = rng.randrange(spec.capacity_bytes - nbytes)
        if rng.random() < 0.5:
            offset -= offset % PAGE
        data = _payload(rng, nbytes) or bytes(nbytes)
        action = rng.randrange(5)
        if action == 0:
            nvm.format(offset, data)
            persisted[offset : offset + nbytes] = data
        else:
            nvm.store(offset, data)
            pending.append((offset, data))
        if action == 4:
            nvm.flush()
            for at, chunk in pending:
                persisted[at : at + len(chunk)] = chunk
            pending = []
        seen = bytearray(persisted)
        for at, chunk in pending:
            seen[at : at + len(chunk)] = chunk
        offset = rng.randrange(spec.capacity_bytes - PAGE)
        loaded, _ = nvm.load(offset, PAGE)
        assert loaded == seen[offset : offset + PAGE]
        assert nvm.persisted(offset, PAGE) == persisted[offset : offset + PAGE]
        assert nvm._image._written_runs() == _oracle_runs(persisted)
    nvm.crash()
    assert nvm.persisted(0, spec.capacity_bytes) == persisted


def _image_rss_kib(image) -> int:
    """``Rss`` of every mapping that overlaps ``image``, in KiB."""
    anchor = ctypes.c_char.from_buffer(image)
    start = ctypes.addressof(anchor)
    del anchor
    end = start + len(image)
    total = 0
    overlaps = False
    with open("/proc/self/smaps") as smaps:
        for line in smaps:
            head = line.split(None, 1)[0]
            if "-" in head and not head.endswith(":"):
                lo, hi = (int(x, 16) for x in head.split("-"))
                overlaps = lo < end and start < hi
            elif overlaps and head == "Rss:":
                total += int(line.split()[1])
    return total


@pytest.mark.skipif(
    not os.path.exists("/proc/self/smaps"), reason="needs Linux /proc/self/smaps"
)
def test_zero_pages_stay_unmapped():
    disk = Disk(ST19101)
    image = disk._data
    before = _image_rss_kib(image)
    blocks = (16 << 20) // (BLOCK_SECTORS * SB)
    for block in range(blocks):
        data = None if block % 2 else bytes(BLOCK_SECTORS * SB)
        disk.write(block * BLOCK_SECTORS, BLOCK_SECTORS, data)
    # Segment-shaped runs: a non-zero summary page, then zero data pages.
    # Half the summaries open with a zero byte, so their page is a
    # candidate and the zero pages after it must be told apart one by one.
    segment = 16 * PAGE
    segments = min(48, (disk.geometry.capacity_bytes - (16 << 20)) // segment)
    for i in range(segments):
        summary = bytes([i + 1]) * PAGE
        if i % 2:
            summary = bytes(SB) + summary[SB:]
        payload = summary + bytes(segment - PAGE)
        sector = (blocks * BLOCK_SECTORS) + i * (segment // SB)
        disk.write_run(sector, segment // SB, BLOCK_SECTORS, payload)
        disk.write(sector, segment // SB, payload)
    # The summary pages are resident by right; the zeros are not.
    grown = _image_rss_kib(image) - before - segments * PAGE // 1024
    assert grown < 1024, f"the image grew {grown} KiB resident beyond its summaries"
    assert len(image._written_runs()) == segments
