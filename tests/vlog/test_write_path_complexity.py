"""A guard that counts, not times, on the write path (DESIGN.md section
19, "Host cost of a logical write").

One synchronous ``write_block`` on a 70 %-full VLD is the sentence the
paper is about -- eager-write the block, append one map record -- and its
host cost is priced here in Python-level calls under ``sys.setprofile``:
82.5 with the idle compactor's share and 67.4 without on 3.11 (the
parent commit took 149.7 and 112.3), against ceilings that leave room for
the call or two other interpreter versions differ by.  Two counts say
where the saving is: the append path builds no ``MapRecord`` (the image
is packed from the fields in hand), and the compactor asks the free map
about a cylinder, not about each of its tracks.
"""

import random

import pytest

from repro.disk.disk import Disk
from repro.disk.specs import ST19101
from repro.vlog import entries as entries_module
from repro.vlog.vld import VirtualLogDisk
from tests._counting import calls_by_function, count_calls

WRITES = 2048
IDLE_EVERY = 256
IDLE_SECONDS = 0.25
CALLS_PER_WRITE_CEILING = {True: 100, False: 80}
FREEMAP_QUERIES_PER_MOVED_BLOCK_CEILING = 4

#: ``FreeSpaceMap``'s rotational and scan queries: the eight the ledger
#: traces as ``disk.freemap.query``, and the compactor's hole query.
FREEMAP_QUERIES = (
    "nearest_free_run",
    "nearest_free_in_cylinder",
    "nearest_hole_in_cylinder",
    "cylinder_has_run",
    "has_aligned_run",
    "find_empty_track",
    "next_used_on_track",
    "partial_tracks",
    "tracks_by_free_count",
)


def _filled_vld():
    """The ledger's ``vld_sync_update`` shape: seed 17, non-zero pages."""
    rng = random.Random(17)
    vld = VirtualLogDisk(Disk(ST19101))
    live = rng.sample(
        range(vld.num_blocks), int(0.70 * vld.physical_blocks)
    )
    pages = [bytes([1 + x % 255]) * vld.block_size for x in range(256)]
    for lba in sorted(live):
        vld.write_block(lba, pages[lba & 255])
    work = [
        (rng.choice(live), pages[rng.randrange(256)]) for _ in range(WRITES)
    ]
    return vld, work


def _drive(vld, work, idle: bool) -> None:
    for issued, (lba, page) in enumerate(work, 1):
        vld.write_block(lba, page)
        if idle and issued % IDLE_EVERY == 0:
            vld.idle(IDLE_SECONDS)


@pytest.mark.parametrize("idle", [True, False])
def test_python_calls_per_write_block(idle):
    vld, work = _filled_vld()
    calls, _ = count_calls(lambda: _drive(vld, work, idle))
    assert calls / WRITES <= CALLS_PER_WRITE_CEILING[idle]
    # The compactor's share is real work, not an empty idle loop.
    assert (vld.compactor.blocks_moved > 0) == idle


def test_append_builds_no_map_record(monkeypatch):
    """Recovery parses blocks into ``MapRecord`` objects; the append path
    packs from the fields it holds and makes none."""
    made = []
    init = entries_module.MapRecord.__init__

    def counting_init(self, *args, **kwargs):
        made.append(args[0] if args else kwargs.get("chunk_id"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(entries_module.MapRecord, "__init__", counting_init)
    vld, work = _filled_vld()
    _drive(vld, work, idle=True)
    assert vld.vlog.appends > WRITES and vld.vlog.relocations > 0
    assert made == []
    vld.crash()
    outcome = vld.recover()
    assert len(made) >= outcome.records_read > 0


def test_freemap_queries_per_hole_plugged_block():
    """The hole search asks once per cylinder it reaches (1.6 per moved
    block here, where pricing each partial track took 20.0); with the
    track scan's ``next_used_on_track`` and the map allocator's own query
    for the commits, a moved block costs 3.0 free-map queries (21.3 at
    the parent commit)."""
    vld, work = _filled_vld()
    queries = 0
    for issued, (lba, page) in enumerate(work, 1):
        vld.write_block(lba, page)
        if issued % IDLE_EVERY == 0:
            calls, _ = calls_by_function(lambda: vld.idle(IDLE_SECONDS))
            queries += sum(
                calls[("freemap.py", name)] for name in FREEMAP_QUERIES
            )
    moved = vld.compactor.blocks_moved
    assert moved > 200
    assert queries / moved <= FREEMAP_QUERIES_PER_MOVED_BLOCK_CEILING
