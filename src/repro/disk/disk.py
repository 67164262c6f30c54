"""The disk service-time engine.

A :class:`Disk` owns the geometry, mechanics, head state, track buffer, and
(optionally) the actual sector contents.  Each ``read``/``write`` advances
the simulated clock by the request's service time and returns a
:class:`~repro.sim.stats.Breakdown` separating SCSI command overhead,
positioning ("locate"), and media transfer -- the components Figure 9 of the
paper stacks.

Because every layer in the paper's experiments issues requests synchronously,
no event queue is needed: service times are computed closed-form from the
head position and the platter's rotational position (a pure function of the
simulated time).  The closed form itself -- move the arm, wait for the
sector's angle, transfer -- is :meth:`DiskMechanics.access
<repro.disk.mechanics.DiskMechanics.access>`; every media access here
(``read``, ``write``, each block of ``write_run``) is one call to it, with
the costs accumulated in the order a clock advanced once per phase would
add them.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.disk.cache import ReadAheadPolicy, TrackBuffer
from repro.disk.geometry import DiskGeometry
from repro.disk.mechanics import DiskMechanics
from repro.disk.specs import DiskSpec
from repro.sim.clock import SimClock
from repro.sim.media import MediaImage, blank
from repro.sim.metrics import OpCounters
from repro.sim.stats import Breakdown

class Disk:
    """A simulated rotating disk.

    Args:
        spec: Drive parameter set (e.g. :data:`~repro.disk.specs.HP97560`).
        clock: Simulated clock; a fresh one is created when omitted.
        num_cylinders: Cylinders to expose (defaults to the paper's
            simulated slice, ``spec.sim_cylinders``).
        readahead: Track-buffer policy.
        store_data: Keep actual sector contents in memory, in a
            :class:`~repro.sim.media.MediaImage` that holds only the
            pages written so far.  Disable for timing-only studies (e.g.
            the analytical-model validations).
    """

    def __init__(
        self,
        spec: DiskSpec,
        clock: Optional[SimClock] = None,
        num_cylinders: int = 0,
        readahead: ReadAheadPolicy = ReadAheadPolicy.DARTMOUTH,
        store_data: bool = True,
    ) -> None:
        self.spec = spec
        self.clock = clock if clock is not None else SimClock()
        self.geometry = DiskGeometry(spec, num_cylinders)
        #: The one timing model: the service path below, the eager
        #: allocator, SATF and the compactor all price through it.
        self.mechanics = DiskMechanics(self.geometry)
        self.cache = TrackBuffer(readahead)
        self.head_cylinder = 0
        self.head_head = 0
        self._data: Optional[MediaImage] = (
            MediaImage(self.geometry.capacity_bytes) if store_data else None
        )
        # Statistics (request counts, sectors moved, busy time).
        self.counters = OpCounters()
        #: The :class:`~repro.blockdev.interpose.FaultPlane` under this
        #: medium, if any: every write is one ``"sector-run"`` event it
        #: counts (and may crash), every read meets its media faults, and
        #: every service ends through its fail-slow window.
        self.faults = None
        #: Optional sidecar checksum store with a ``record(sector, data)``
        #: method, modelling the per-sector out-of-band ECC bytes real
        #: drives write alongside every sector.  Attached by the VLD's
        #: resilience layer; recording costs zero simulated time (the
        #: head writes the ECC in the same pass as the data), and
        #: verification happens in the *reader's* path, never here, so
        #: non-resilient consumers are untouched.
        self.checksums = None

    # ------------------------------------------------------------------
    # Introspection used by the eager-writing machinery
    # ------------------------------------------------------------------

    @property
    def sector_bytes(self) -> int:
        return self.spec.sector_bytes

    @property
    def total_sectors(self) -> int:
        return self.geometry.total_sectors

    def slot_after(self, seconds: float) -> float:
        """Angular position ``seconds`` from now."""
        return self.mechanics.rotational_slot(self.clock.now + seconds)

    # ------------------------------------------------------------------
    # Data plumbing
    # ------------------------------------------------------------------

    def peek(self, sector: int, count: int = 1) -> bytes:
        """Read sector contents *without* advancing time (for tests/recovery
        tooling that models out-of-band firmware access)."""
        self._check_run(sector, count)
        if self._data is None:
            raise RuntimeError("disk was created with store_data=False")
        lo = sector * self.sector_bytes
        return self._data[lo : lo + count * self.sector_bytes]

    def _store(self, sector: int, count: int, data) -> None:
        """Lay ``count`` sectors of ``data`` (zeros when ``None``) on the
        media with their checksums, and tell the track buffer: the one
        way bytes reach the image.  The image's verdict on whether the
        payload is all zeros picks the checksum path, so no write tests
        its payload twice.  Untimed; the callers charge."""
        image = self._data
        if image is not None:
            if data is None:
                nbytes = count * self.spec.sector_bytes
                data = memoryview(blank(nbytes))[:nbytes]
            zero = image.store(sector * self.spec.sector_bytes, data)
            checksums = self.checksums
            if checksums is not None:
                if zero:
                    checksums.record_zeros(sector, count)
                else:
                    checksums.record(sector, data)
        cache = self.cache
        if cache._segment is not None:
            cache.note_write(sector, count)

    def _check_run(self, sector: int, count: int) -> None:
        if count <= 0:
            raise ValueError("count must be positive")
        self.geometry.check_sector(sector)
        self.geometry.check_sector(sector + count - 1)

    # ------------------------------------------------------------------
    # The service-time engine
    # ------------------------------------------------------------------

    def read(
        self, sector: int, count: int = 1, charge_scsi: bool = True
    ) -> Tuple[bytes, Breakdown]:
        """Service a read request; returns (data, latency breakdown).

        ``charge_scsi=False`` models an access issued *by the drive's own
        processor* (the virtual log machinery), which pays mechanics but not
        host-visible command overhead.
        """
        geometry = self.geometry
        if count <= 0 or not 0 <= sector <= geometry.total_sectors - count:
            self._check_run(sector, count)  # names what is wrong, and raises
        faults = self.faults
        if faults is not None:
            faults.before_read(sector, count)
        clock = self.clock
        start = issued = clock.now
        overhead = 0.0
        if charge_scsi:
            # Opens the breakdown directly, as in write().
            overhead = self.spec.scsi_overhead
            issued = clock.advance(overhead)
        per_track = geometry.sectors_per_track
        sect = sector % per_track
        if count <= per_track - sect:
            # The request fits on one track (every block-granular read
            # does): the track buffer judges it, and the costs open the
            # breakdown as write()'s do.
            track_lo = sector - sect
            track_key = divmod(sector // per_track, geometry.tracks_per_cylinder)
            if self.cache.note_read(
                track_key, track_lo, track_lo + per_track, sector, count
            ):
                # Served from the track buffer at (approximately) media
                # rate; no arm or rotational involvement.
                transfer = self.mechanics.transfer_time(count)
                breakdown = Breakdown(overhead, transfer)
                finish = clock.advance(transfer)
            else:
                (
                    finish,
                    positioning,
                    rotational,
                    transfer,
                    self.head_cylinder,
                    self.head_head,
                ) = self.mechanics.access(
                    issued, self.head_cylinder, self.head_head, sector, count
                )
                breakdown = Breakdown(
                    overhead, transfer, positioning + rotational
                )
                finish = clock.advance_to(finish)
        else:
            breakdown = Breakdown(overhead)
            chunks = []
            remaining = count
            cursor = sector
            while remaining > 0:
                chunk = self._chunk_within_track(cursor, remaining)
                chunks.append((cursor, chunk))
                cursor += chunk
                remaining -= chunk
            self._service_read_span(chunks, breakdown)
            finish = clock.now
        counters = self.counters
        counters.reads += 1
        counters.sectors_read += count
        counters.busy_time += finish - start
        if faults is not None:
            faults.service_ended(clock, start)
        image = self._data
        if image is None:
            return b"", breakdown
        lo = sector * self.spec.sector_bytes
        return image[lo : lo + count * self.spec.sector_bytes], breakdown

    def write(
        self,
        sector: int,
        count: int = 1,
        data: Optional[bytes] = None,
        charge_scsi: bool = True,
    ) -> Breakdown:
        """Service a write request; returns the latency breakdown.

        ``data`` must be ``count`` sectors long when given; when omitted,
        zeros are written (timing studies don't care about contents).
        """
        geometry = self.geometry
        if count <= 0 or not 0 <= sector <= geometry.total_sectors - count:
            self._check_run(sector, count)  # names what is wrong, and raises
        sector_bytes = self.spec.sector_bytes
        if data is not None and len(data) != count * sector_bytes:
            raise ValueError(
                f"data length {len(data)} != {count} sectors "
                f"({count * sector_bytes} bytes)"
            )
        faults = self.faults
        if faults is not None:
            # If the power drops here, the surviving prefix lands untimed.
            keep = faults.persists("sector-run", count)
            if keep is not None:
                if keep:
                    self._store(sector, keep, None if data is None
                                else data[: keep * sector_bytes])
                raise faults.power_lost(
                    "sector-run", f"sector {sector}, {count} sectors",
                    op="write", sector=sector, count=count,
                )
        clock = self.clock
        start = issued = clock.now
        overhead = 0.0
        if charge_scsi:
            # The command overhead is a constant of the spec: it opens
            # the breakdown directly (0.0 + x == x, so the figures match
            # a validated charge("scsi", x) bit for bit).
            overhead = self.spec.scsi_overhead
            issued = clock.advance(overhead)
        per_track = geometry.sectors_per_track
        if count <= per_track - sector % per_track:
            # The request fits on one track (every block-granular write
            # does): one positioning pass, so the three costs open the
            # breakdown as they are -- ``(0.0 + positioning) + rotational``
            # is ``positioning + rotational`` bit for bit, the costs being
            # non-negative.
            (
                finish,
                positioning,
                rotational,
                transfer,
                self.head_cylinder,
                self.head_head,
            ) = self.mechanics.access(
                issued, self.head_cylinder, self.head_head, sector, count
            )
            breakdown = Breakdown(
                overhead, transfer, positioning + rotational
            )
            finish = clock.advance_to(finish)
        else:
            breakdown = Breakdown(overhead)
            remaining = count
            cursor = sector
            while remaining > 0:
                chunk = self._chunk_within_track(cursor, remaining)
                self._position_and_transfer(cursor, chunk, breakdown)
                cursor += chunk
                remaining -= chunk
            finish = clock.now
        self._store(sector, count, data)
        counters = self.counters
        counters.writes += 1
        counters.sectors_written += count
        counters.busy_time += finish - start
        if faults is not None:
            faults.service_ended(clock, start)
        return breakdown

    def write_run(
        self,
        sector: int,
        count: int,
        block_sectors: int,
        data: Optional[bytes] = None,
        charge_scsi: bool = True,
        accumulate: Optional[Breakdown] = None,
    ) -> Breakdown:
        """Service a physically contiguous run of block-granular writes.

        Bit-identical to issuing ``count // block_sectors`` consecutive
        ``write(sector + i * block_sectors, block_sectors, ...)`` calls --
        same clock trajectory, same per-block counter and breakdown
        arithmetic, same final head/cache/data state -- but with the
        per-call bookkeeping (Breakdown objects, payload slicing, data
        splice, checksum recording) batched over the whole run.  This is
        the media half of the VLD's batched data-movement path.

        ``accumulate``, when given, receives each block's charges as a
        separate component-wise addition, exactly as a caller folding the
        per-block breakdowns one at a time would accumulate them.  Float
        addition is not associative, so callers that split a logical run
        across several ``write_run`` calls (or mix them with scalar
        writes) must pass the same accumulator to every call to keep the
        folded totals bit-identical to the scalar path; the returned
        breakdown holds this run's own totals.

        With a fault plane installed the per-block oracle path runs
        instead: each block write is one persistence event and one
        service, met at its exact time (the power may drop between
        blocks), which is incompatible with deferring the clock/state writes.
        """
        if block_sectors <= 0:
            raise ValueError("block_sectors must be positive")
        if count % block_sectors != 0:
            raise ValueError("count must be a whole number of blocks")
        self._check_run(sector, count)
        sector_bytes = self.sector_bytes
        if data is not None and len(data) != count * sector_bytes:
            raise ValueError(
                f"data length {len(data)} != {count} sectors "
                f"({count * sector_bytes} bytes)"
            )
        blocks = count // block_sectors
        per_track = self.geometry.sectors_per_track
        if (
            blocks == 1
            or self.faults is not None
            or per_track % block_sectors != 0
            or sector % block_sectors != 0
        ):
            # Oracle path: one ordinary write per block (exact scalar
            # behaviour, including per-block persistence events and writes that
            # straddle track boundaries).
            breakdown = Breakdown()
            block_bytes = block_sectors * sector_bytes
            view = memoryview(data) if data is not None else None
            cursor = sector
            for i in range(blocks):
                payload = (
                    None
                    if view is None
                    else view[i * block_bytes : (i + 1) * block_bytes]
                )
                piece = self.write(cursor, block_sectors, payload, charge_scsi)
                breakdown.add(piece)
                if accumulate is not None:
                    accumulate.add(piece)
                cursor += block_sectors
            return breakdown
        # Fast path: replay the per-block service arithmetic against a
        # local clock/head, writing state back once.  Every float op is
        # kept in scalar order (per-block locate = (pos + rot), per-block
        # busy-time add), so totals are bit-for-bit what the per-block
        # loop produces.
        clock = self.clock
        access = self.mechanics.access
        counters = self.counters
        scsi = self.spec.scsi_overhead if charge_scsi else 0.0
        t = clock.now
        hc = self.head_cylinder
        hh = self.head_head
        busy = counters.busy_time
        scsi_total = 0.0
        locate_total = 0.0
        transfer_total = 0.0
        if accumulate is not None:
            acc_scsi = accumulate.scsi
            acc_locate = accumulate.locate
            acc_transfer = accumulate.transfer
        cursor = sector
        for _ in range(blocks):
            t0 = t
            if scsi:
                scsi_total += scsi
                t += scsi
            t, positioning, rotational, transfer, hc, hh = access(
                t, hc, hh, cursor, block_sectors
            )
            locate = positioning + rotational
            locate_total += locate
            transfer_total += transfer
            if accumulate is not None:
                if scsi:
                    acc_scsi += scsi
                acc_locate += locate
                acc_transfer += transfer
            busy += t - t0
            cursor += block_sectors
        clock.advance_to(t)
        self.head_cylinder = hc
        self.head_head = hh
        counters.writes += blocks
        counters.sectors_written += count
        counters.busy_time = busy
        if accumulate is not None:
            if scsi:
                accumulate.scsi = acc_scsi
            accumulate.locate = acc_locate
            accumulate.transfer = acc_transfer
        breakdown = Breakdown(
            scsi=scsi_total, transfer=transfer_total, locate=locate_total
        )
        self._store(sector, count, data)
        return breakdown

    def _chunk_within_track(self, sector: int, remaining: int) -> int:
        """Largest prefix of the request that stays on one track."""
        per_track = self.geometry.sectors_per_track
        room = per_track - (sector % per_track)
        return min(remaining, room)

    def _service_read_span(self, chunks, breakdown: Breakdown) -> None:
        """Service a read that crosses track boundaries: the buffer judges
        the whole request at once (see ``TrackBuffer.note_read_span``),
        then each per-track piece is either delivered from the buffer or
        read from the media."""
        per_track = self.geometry.sectors_per_track
        spans = []
        for cursor, chunk in chunks:
            cylinder, head, _sect = self.geometry.decompose(cursor)
            track_lo = self.geometry.track_start(cylinder, head)
            spans.append(
                ((cylinder, head), track_lo, track_lo + per_track, cursor, chunk)
            )
        hits = self.cache.note_read_span(spans)
        for (cursor, chunk), hit in zip(chunks, hits):
            if hit:
                transfer = self.mechanics.transfer_time(chunk)
                breakdown.charge("transfer", transfer)
                self.clock.advance(transfer)
            else:
                self._position_and_transfer(cursor, chunk, breakdown)

    def _position_and_transfer(
        self, sector: int, count: int, breakdown: Breakdown
    ) -> None:
        """Move the arm, wait for rotation, and transfer ``count`` sectors
        (one track's worth at most; the caller has validated the run)."""
        clock = self.clock
        (
            finish,
            positioning,
            rotational,
            transfer,
            self.head_cylinder,
            self.head_head,
        ) = self.mechanics.access(
            clock.now, self.head_cylinder, self.head_head, sector, count
        )
        # The costs are non-negative by construction, so they accumulate
        # directly, in the order one charge per phase would add them.
        breakdown.locate = (breakdown.locate + positioning) + rotational
        breakdown.transfer += transfer
        clock.advance_to(finish)

    def __repr__(self) -> str:
        return (
            f"Disk({self.spec.name}, head=({self.head_cylinder},"
            f"{self.head_head}), t={self.clock.now:.6f}s)"
        )
