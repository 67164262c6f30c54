from repro.disk.cache import ReadAheadPolicy, TrackBuffer
from repro.disk.disk import Disk
from repro.disk.specs import ST19101


TRACK = ((0, 0), 0, 256)  # key, lo, hi


def test_disabled_policy_never_hits():
    buf = TrackBuffer(ReadAheadPolicy.DISABLED)
    assert not buf.note_read(*TRACK, 10, 4)
    assert not buf.note_read(*TRACK, 10, 4)
    assert buf.hits == 0 and buf.misses == 2


def test_dartmouth_readahead_to_end_of_track():
    buf = TrackBuffer(ReadAheadPolicy.DARTMOUTH)
    assert not buf.note_read(*TRACK, 10, 4)      # miss populates [10, 256)
    assert buf.note_read(*TRACK, 100, 8)         # within read-ahead: hit
    assert buf.hits == 1


def test_dartmouth_discards_lower_addresses():
    """Section 4.2: the stock policy discards data below the current
    request -- fine for monotonic physical addresses, bad under a VLD."""
    buf = TrackBuffer(ReadAheadPolicy.DARTMOUTH)
    buf.note_read(*TRACK, 10, 4)
    assert buf.note_read(*TRACK, 100, 8)         # hit; discards [10, 100)
    assert not buf.note_read(*TRACK, 20, 4)      # lower address: miss now


def test_full_track_policy_retains_lower_addresses():
    buf = TrackBuffer(ReadAheadPolicy.FULL_TRACK)
    buf.note_read(*TRACK, 100, 8)                # miss caches whole track
    assert buf.note_read(*TRACK, 20, 4)          # lower address still hit
    assert buf.note_read(*TRACK, 200, 8)


def test_miss_on_other_track_replaces_segment():
    buf = TrackBuffer(ReadAheadPolicy.FULL_TRACK)
    buf.note_read(*TRACK, 0, 4)
    other = ((0, 1), 256, 512)
    assert not buf.note_read(*other, 300, 4)
    assert buf.note_read(*other, 400, 4)
    assert not buf.note_read(*TRACK, 0, 4)


def test_write_invalidates_overlap():
    buf = TrackBuffer(ReadAheadPolicy.FULL_TRACK)
    buf.note_read(*TRACK, 0, 4)
    buf.note_write(128, 8)
    assert not buf.note_read(*TRACK, 10, 4)


def test_write_outside_does_not_invalidate():
    buf = TrackBuffer(ReadAheadPolicy.FULL_TRACK)
    buf.note_read(*TRACK, 0, 4)
    buf.note_write(1000, 8)
    assert buf.note_read(*TRACK, 10, 4)


def test_invalidate_clears():
    buf = TrackBuffer(ReadAheadPolicy.FULL_TRACK)
    buf.note_read(*TRACK, 0, 4)
    buf.invalidate()
    assert not buf.contains(0, 4)


def test_hit_rate():
    buf = TrackBuffer(ReadAheadPolicy.DARTMOUTH)
    buf.note_read(*TRACK, 0, 4)
    buf.note_read(*TRACK, 4, 4)
    buf.note_read(*TRACK, 8, 4)
    assert (buf.hits, buf.misses) == (2, 1)


# ----------------------------------------------------------------------
# Requests spanning a track boundary (the seed fed them through the
# buffer one track at a time, so the first track's refill evicted what
# the later tracks were about to hit and a spanning request could never
# be fully served from the buffer).
# ----------------------------------------------------------------------

TRACK2 = ((0, 1), 256, 512)
SPAN = [TRACK + (250, 6), TRACK2 + (256, 6)]  # one request, two tracks


def test_span_disabled_counts_per_track_misses():
    buf = TrackBuffer(ReadAheadPolicy.DISABLED)
    assert buf.note_read_span(SPAN) == [False, False]
    assert (buf.hits, buf.misses) == (0, 2)


def test_span_full_track_caches_whole_request():
    buf = TrackBuffer(ReadAheadPolicy.FULL_TRACK)
    assert buf.note_read_span(SPAN) == [False, False]
    assert buf.note_read_span(SPAN) == [True, True]
    assert buf.contains(0, 4) and buf.contains(500, 12)


def test_span_dartmouth_reads_ahead_to_last_track_end():
    buf = TrackBuffer(ReadAheadPolicy.DARTMOUTH)
    buf.note_read_span(SPAN)
    assert not buf.contains(240, 4)          # below the request: not cached
    assert buf.note_read_span(SPAN) == [True, True]
    assert buf.contains(262, 8)              # read-ahead past the boundary


def test_span_partial_hit_judged_against_prior_segment():
    buf = TrackBuffer(ReadAheadPolicy.FULL_TRACK)
    buf.note_read(*TRACK, 0, 4)              # caches track 0 only
    assert buf.note_read_span(SPAN) == [True, False]
    assert (buf.hits, buf.misses) == (1, 2)
    assert buf.note_read_span(SPAN) == [True, True]


def test_boundary_spanning_read_hits_on_second_pass():
    """Regression: through the disk engine, the second pass of a read that
    straddles a track boundary is served entirely from the buffer (no
    positioning), which the per-track seed path made impossible."""
    disk = Disk(ST19101, readahead=ReadAheadPolicy.FULL_TRACK, store_data=False)
    _, first = disk.read(250, 12, charge_scsi=False)
    assert (disk.cache.hits, disk.cache.misses) == (0, 2)
    assert first.locate > 0.0
    _, second = disk.read(250, 12, charge_scsi=False)
    assert (disk.cache.hits, disk.cache.misses) == (2, 2)
    assert second.locate == 0.0
    assert second.total == disk.mechanics.transfer_time(12)


def test_boundary_spanning_ablation_dartmouth_vs_full_track():
    """Fig. 9's read-ahead ablation depends on spanning requests being
    accounted honestly: FULL_TRACK retains the data below a spanning
    request (VLD-style out-of-order physical addresses still hit) while
    DARTMOUTH discards it -- so FULL_TRACK's hit rate strictly dominates."""
    rates = {}
    for policy in (ReadAheadPolicy.DARTMOUTH, ReadAheadPolicy.FULL_TRACK):
        disk = Disk(ST19101, readahead=policy, store_data=False)
        disk.read(250, 12, charge_scsi=False)   # spanning: 2 misses
        disk.read(240, 8, charge_scsi=False)    # below the request start
        rates[policy] = (disk.cache.hits, disk.cache.misses)
    assert rates[ReadAheadPolicy.FULL_TRACK] == (1, 2)
    assert rates[ReadAheadPolicy.DARTMOUTH] == (0, 3)
