"""The lazy checksum sidecar changes nothing a caller can see: it hashes
only damaged sectors and reads that differ from the media, and every
verdict is the eager store's (DESIGN.md section 10, "Checksum
envelope").

Each seeded script runs through two identical VLDs.  The first keeps
the lazy ``ChecksumStore`` every VLD builds; the second has the eager
store it replaced (:class:`tests.vlog.reference_checksum.EagerSidecar`,
which hashes every sector the drive writes) installed in its place.  The
scripts write, trim, idle (the compactor and the scrubber run), read
single blocks and runs, corrupt a live sector behind the drive's back
(:func:`tests._media.silently_corrupt`), scribble over one
(``Disk.damage``), fork the pair by ``copy.deepcopy`` and by ``pickle``,
and crash and recover, behind an orderly power-down or not.  After every
step both stacks must agree on the read data or the ``MediaError``, the
suspects, ``checksum_failures``, the retry and error counts and the
clock; at the end the first must have hashed some sectors, and fewer
than the second, or the damage path was never exercised.
"""

import copy
import pickle
import random

import pytest

from repro.disk.disk import Disk
from repro.disk.specs import ST19101
from repro.vlog.resilience import MediaError
from repro.vlog.vld import VirtualLogDisk
from tests._counting import count_sectors_hashed
from tests._media import silently_corrupt
from tests.vlog import reference_checksum
from tests.vlog.reference_checksum import EagerSidecar

BS = 4096
LBAS = 48
STEPS = 160
SEEDS = range(10)


def _pair():
    stacks = [VirtualLogDisk(Disk(ST19101, num_cylinders=3)) for _ in range(2)]
    disk = stacks[1].disk
    disk.checksums = EagerSidecar(disk._data, disk.sector_bytes)
    stacks[1].resilience.checksums = disk.checksums
    return stacks


def _read(vld, lba, count):
    try:
        data, breakdown = vld.read_blocks(lba, count)
    except MediaError as error:
        return ("MediaError", error.sector, error.attempt)
    return (data, breakdown.total)


def _observed(vld):
    resilience = vld.resilience
    return (
        vld.clock.now,
        list(resilience.suspects),
        sorted(resilience.quarantine.sectors),
        resilience.checksum_failures,
        resilience.media_errors,
        resilience.retries,
        list(resilience.scrubber.lost_sectors),
    )


def _live_sector(vld, rng):
    """A sector of a mapped block, or ``None`` when nothing is mapped."""
    mapped = sorted(lba for lba, _ in vld.imap.items())
    if not mapped:
        return None
    physical = vld.imap.get(rng.choice(mapped))
    return physical * vld.sectors_per_block + rng.randrange(vld.sectors_per_block)


def _step(stacks, rng):
    """Apply one random step to both stacks; returns the stacks (a fork
    replaces them) and what each observed."""
    roll = rng.random()
    if roll < 0.30:
        lba, tag = rng.randrange(LBAS), rng.randrange(1, 256)
        for vld in stacks:
            vld.write_block(lba, bytes([tag]) * BS)
        return stacks, None
    if roll < 0.60:
        lba = rng.randrange(LBAS)
        count = rng.choice((1, 1, 1, 2, 4))
        count = min(count, LBAS - lba)
        return stacks, [_read(vld, lba, count) for vld in stacks]
    if roll < 0.66:
        lba = rng.randrange(LBAS)
        for vld in stacks:
            vld.trim(lba)
        return stacks, None
    if roll < 0.74:
        seconds = rng.choice((0.05, 0.3))
        for vld in stacks:
            vld.idle(seconds)
        return stacks, None
    if roll < 0.79:
        sector = _live_sector(stacks[0], rng)
        if sector is not None:
            for vld in stacks:
                silently_corrupt(vld.disk, sector)
        return stacks, None
    if roll < 0.84:
        sector = _live_sector(stacks[0], rng)
        if sector is not None:
            scribble = bytes([rng.randrange(256)]) * 512
            for vld in stacks:
                vld.disk.damage(sector, scribble)
        return stacks, None
    if roll < 0.88:
        return [copy.deepcopy(vld) for vld in stacks], None
    if roll < 0.92:
        return [pickle.loads(pickle.dumps(vld)) for vld in stacks], None
    orderly = rng.random() < 0.5
    outcomes = []
    for vld in stacks:
        if orderly:
            vld.power_down()
        vld.crash()
        outcome = vld.recover()
        outcomes.append((outcome.scanned, outcome.degraded, outcome.elapsed))
    return stacks, outcomes


@pytest.mark.parametrize("seed", SEEDS)
def test_the_memo_changes_nothing_a_caller_sees(seed, monkeypatch):
    lazy = count_sectors_hashed(monkeypatch)
    eager = count_sectors_hashed(monkeypatch, reference_checksum)
    stacks = _pair()
    rng = random.Random(seed)
    for step in range(STEPS):
        stacks, seen = _step(stacks, rng)
        assert isinstance(stacks[1].resilience.checksums, EagerSidecar)
        assert stacks[1].disk.checksums is stacks[1].resilience.checksums
        if seen is not None:
            assert seen[0] == seen[1], f"step {step}"
        assert _observed(stacks[0]) == _observed(stacks[1]), f"step {step}"
    for lba in range(LBAS):
        assert _read(stacks[0], lba, 1) == _read(stacks[1], lba, 1)
    assert list(stacks[0].disk.checksums.items()) == list(
        stacks[1].disk.checksums.items()
    )
    assert 0 < lazy[0] < eager[0]


def test_a_block_that_read_clean_then_silently_corrupted_is_caught():
    vld = VirtualLogDisk(Disk(ST19101, num_cylinders=3))
    vld.write_block(7, bytes([9]) * BS)
    sector = vld.imap.get(7) * vld.sectors_per_block
    assert vld.read_block(7)[0] == bytes([9]) * BS
    silently_corrupt(vld.disk, sector + 3)
    with pytest.raises(MediaError) as caught:
        vld.read_block(7)
    assert caught.value.sector == sector + 3
    assert vld.resilience.checksum_failures > 0
    assert sector + 3 in vld.resilience.suspects


def test_a_direct_slice_write_clears_the_marks_it_touches():
    """Damage to one byte of a block fails that block's reads, and only
    its: the neighbour in the same run still reads clean alone."""
    vld = VirtualLogDisk(Disk(ST19101, num_cylinders=3))
    vld.write_blocks(0, 2, bytes([5]) * 2 * BS)
    first = vld.imap.get(0) * vld.sectors_per_block
    assert vld.imap.get(1) * vld.sectors_per_block == first + vld.sectors_per_block
    vld.read_blocks(0, 2)
    sector = first + vld.sectors_per_block
    scribbled = bytearray(vld.disk.peek(sector))
    scribbled[100] = 0
    vld.disk.damage(sector, bytes(scribbled))
    assert vld.read_block(0)[0] == bytes([5]) * BS
    with pytest.raises(MediaError):
        vld.read_block(1)
    with pytest.raises(MediaError):
        vld.read_blocks(0, 2)


@pytest.mark.parametrize("fork", ["deepcopy", "pickle"])
def test_a_fork_starts_with_no_page_marked(fork):
    """A fork's sidecar guards the fork's own image: damage on either
    side fails only that side's reads."""
    vld = VirtualLogDisk(Disk(ST19101, num_cylinders=3))
    vld.write_block(3, bytes([4]) * BS)
    vld.read_block(3)
    sector = vld.imap.get(3) * vld.sectors_per_block
    twin = copy.deepcopy(vld) if fork == "deepcopy" else pickle.loads(pickle.dumps(vld))
    store = twin.resilience.checksums
    assert store is twin.disk.checksums
    assert store._image is twin.disk._data
    assert store._image is not vld.disk._data
    silently_corrupt(twin.disk, sector)
    assert vld.read_block(3)[0] == bytes([4]) * BS
    with pytest.raises(MediaError):
        twin.read_block(3)
    silently_corrupt(vld.disk, sector + 1)
    with pytest.raises(MediaError) as caught:
        vld.read_block(3)
    assert caught.value.sector == sector + 1
