"""Verify once: skipping the hash of a page that verified clean changes
nothing a caller can see (DESIGN.md section 10, "Verify once").

Each seeded script runs through two identical VLDs.  The first keeps
its media image's "verified" marks; the second has them wiped before
every read it makes (its resilience controller is swapped, from here,
for a subclass that clears the image's map first), so every one of its
reads hashes, as every read did before the memo.  The scripts write,
trim, idle (the compactor and the scrubber run), read single blocks and
runs, corrupt a live sector behind the drive's back
(:func:`tests._media.silently_corrupt`), scribble one straight into the
image with ``disk._data.store`` (no checksum recorded), fork the pair by
``copy.deepcopy`` and by ``pickle``, and crash and recover, behind an orderly power-down
or not.  After every step both stacks must agree on the read data or
the ``MediaError``, the suspects, ``checksum_failures``, the retry and
error counts and the clock; at the end the first must have hashed
fewer times than the second, or the memo was never exercised.
"""

import copy
import pickle
import random

import pytest

from repro.disk.disk import Disk
from repro.disk.specs import ST19101
from repro.vlog.resilience import ChecksumStore, MediaError, ResilienceController
from repro.vlog.vld import VirtualLogDisk
from tests._media import silently_corrupt

BS = 4096
LBAS = 48
STEPS = 160
SEEDS = range(10)


class _Unmarked(ResilienceController):
    """The controller with no memory: every read wipes the image's
    verified marks first, so every read verifies."""

    def read_sectors(self, sector, count, breakdown=None):
        marks = self.disk._data._verified
        marks[:] = bytes(len(marks))
        return super().read_sectors(sector, count, breakdown)


def _pair():
    stacks = [VirtualLogDisk(Disk(ST19101, num_cylinders=3)) for _ in range(2)]
    stacks[1].resilience.__class__ = _Unmarked
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
                vld.disk._data.store(sector * 512, scribble)
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
    hashed = {"memo": 0, "every read": 0}
    verify = ChecksumStore.verify
    stacks = _pair()

    def counting_verify(store, sector, count, data):
        key = "memo" if store is stacks[0].resilience.checksums else "every read"
        hashed[key] += 1
        return verify(store, sector, count, data)

    monkeypatch.setattr(ChecksumStore, "verify", counting_verify)
    rng = random.Random(seed)
    for step in range(STEPS):
        stacks, seen = _step(stacks, rng)
        assert isinstance(stacks[1].resilience, _Unmarked)
        if seen is not None:
            assert seen[0] == seen[1], f"step {step}"
        assert _observed(stacks[0]) == _observed(stacks[1]), f"step {step}"
    for lba in range(LBAS):
        assert _read(stacks[0], lba, 1) == _read(stacks[1], lba, 1)
    assert 0 < hashed["memo"] < hashed["every read"]


def test_a_block_that_read_clean_then_silently_corrupted_is_caught():
    vld = VirtualLogDisk(Disk(ST19101, num_cylinders=3))
    vld.write_block(7, bytes([9]) * BS)
    sector = vld.imap.get(7) * vld.sectors_per_block
    image = vld.disk._data
    assert vld.read_block(7)[0] == bytes([9]) * BS
    assert image.unverified(sector * 512, BS) == []
    silently_corrupt(vld.disk, sector + 3)
    assert image.unverified(sector * 512, BS) != []
    with pytest.raises(MediaError) as caught:
        vld.read_block(7)
    assert caught.value.sector == sector + 3
    assert vld.resilience.checksum_failures > 0
    assert sector + 3 in vld.resilience.suspects


def test_a_direct_slice_write_clears_the_marks_it_touches():
    vld = VirtualLogDisk(Disk(ST19101, num_cylinders=3))
    vld.write_blocks(0, 2, bytes([5]) * 2 * BS)
    first = vld.imap.get(0) * BS
    assert vld.imap.get(1) * BS == first + BS
    vld.read_blocks(0, 2)
    image = vld.disk._data
    assert image.unverified(first, 2 * BS) == []
    image.store(first + BS + 100, b"\x00")
    assert image.unverified(first, BS) == []
    assert image.unverified(first + BS, BS) != []
    assert image.unverified(first, 2 * BS) != []
    with pytest.raises(MediaError):
        vld.read_block(1)


@pytest.mark.parametrize("fork", ["deepcopy", "pickle"])
def test_a_fork_starts_with_no_page_marked(fork):
    vld = VirtualLogDisk(Disk(ST19101, num_cylinders=3))
    vld.write_block(3, bytes([4]) * BS)
    vld.read_block(3)
    offset = vld.imap.get(3) * BS
    assert vld.disk._data.unverified(offset, BS) == []
    twin = copy.deepcopy(vld) if fork == "deepcopy" else pickle.loads(pickle.dumps(vld))
    assert twin.disk._data.unverified(offset, BS) != []
    assert twin.read_block(3)[0] == bytes([4]) * BS
    assert twin.disk._data.unverified(offset, BS) == []
