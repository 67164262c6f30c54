"""The drive's track buffer and its read-ahead policies.

Section 4.2 of the paper describes an interaction between eager writing and
the stock read-ahead algorithm of the Dartmouth simulator: the simulator
keeps only the sectors from the start of the current request through the
read-ahead point and *discards data whose addresses are lower than the
current request* -- sensible when sequential data has monotonically
increasing physical addresses, but wrong under a VLD where logically
sequential blocks land at arbitrary physical addresses.  The paper's fix is
to prefetch the whole track and retain it until delivered.  Both policies
are implemented here so the difference can be measured (see the track-buffer
ablation benchmark).
"""

from __future__ import annotations

import enum
from typing import List, Optional, Sequence, Tuple


class ReadAheadPolicy(enum.Enum):
    """How the track buffer populates and evicts."""

    #: Stock Dartmouth behaviour: cache [request start, end of track),
    #: discard cached sectors below a new request's address.
    DARTMOUTH = "dartmouth"

    #: The paper's VLD fix: cache the whole track on first touch and keep
    #: it regardless of the addresses of subsequent requests.
    FULL_TRACK = "full_track"

    #: No track buffer at all (every read goes to the media).
    DISABLED = "disabled"


class TrackBuffer:
    """A single-segment track buffer.

    Real drives of the era had a handful of cache segments; a single segment
    is what the Dartmouth model simulates and is enough to reproduce the
    read-ahead phenomena the paper discusses.
    """

    def __init__(self, policy: ReadAheadPolicy = ReadAheadPolicy.DARTMOUTH) -> None:
        self.policy = policy
        # Cached range as (track_key, lo_sector, hi_sector) half-open in
        # linear sector numbers, or None when empty.
        self._segment: Optional[Tuple[Tuple[int, int], int, int]] = None
        self.hits = 0
        self.misses = 0

    def invalidate(self) -> None:
        self._segment = None

    def contains(self, sector: int, count: int) -> bool:
        """True when the whole request can be served from the buffer."""
        if self.policy is ReadAheadPolicy.DISABLED or self._segment is None:
            return False
        _key, lo, hi = self._segment
        return lo <= sector and sector + count <= hi

    def note_read(
        self,
        track_key: Tuple[int, int],
        track_lo: int,
        track_hi: int,
        request_start: int,
        request_count: int,
    ) -> bool:
        """Record a read request; returns True on a buffer hit.

        On a miss the buffer is refilled according to policy.  ``track_lo``
        and ``track_hi`` delimit the linear sector numbers of the track
        holding the request's first sector.
        """
        if self.policy is ReadAheadPolicy.DISABLED:
            self.misses += 1
            return False
        if self.contains(request_start, request_count):
            self.hits += 1
            if self.policy is ReadAheadPolicy.DARTMOUTH:
                # Discard data whose addresses are lower than this request.
                _key, _lo, hi = self._segment  # type: ignore[misc]
                self._segment = (track_key, request_start, hi)
            return True
        self.misses += 1
        if self.policy is ReadAheadPolicy.FULL_TRACK:
            self._segment = (track_key, track_lo, track_hi)
        else:
            # Read-ahead from the request start to the end of the track.
            self._segment = (track_key, request_start, track_hi)
        return False

    def note_read_span(
        self, spans: Sequence[Tuple[Tuple[int, int], int, int, int, int]]
    ) -> List[bool]:
        """Record one request that spans several tracks; returns per-track
        hit flags.

        ``spans`` lists ``(track_key, track_lo, track_hi, start, count)``
        per touched track, in ascending linear order (adjacent entries are
        linearly contiguous, as produced by the disk's chunking).  Every
        span is judged against the segment as it stood *before* this
        request -- feeding the tracks through :meth:`note_read` one at a
        time would let the first track's refill evict the data the later
        tracks were about to hit, so a boundary-spanning request could
        never be served from the buffer twice running.  On any miss the
        refill covers the whole request: the read-ahead point is the end of
        the *last* track touched.
        """
        if self.policy is ReadAheadPolicy.DISABLED:
            self.misses += len(spans)
            return [False] * len(spans)
        segment = self._segment
        hits: List[bool] = []
        for _key, _track_lo, _track_hi, start, count in spans:
            hit = (
                segment is not None
                and segment[1] <= start
                and start + count <= segment[2]
            )
            hits.append(hit)
            if hit:
                self.hits += 1
            else:
                self.misses += 1
        request_start = spans[0][3]
        last_key, _, last_hi, _, _ = spans[-1]
        if all(hits):
            if self.policy is ReadAheadPolicy.DARTMOUTH:
                # Discard data whose addresses are lower than this request.
                key, _lo, hi = segment  # type: ignore[misc]
                self._segment = (key, request_start, hi)
            return hits
        if self.policy is ReadAheadPolicy.FULL_TRACK:
            self._segment = (last_key, spans[0][1], last_hi)
        else:
            self._segment = (last_key, request_start, last_hi)
        return hits

    def note_write(self, sector: int, count: int) -> None:
        """Writes invalidate any overlapping cached range."""
        if self._segment is None:
            return
        _key, lo, hi = self._segment
        if sector < hi and sector + count > lo:
            self._segment = None
