"""``Disk.read`` as it stood before its single-track case took the
mechanics and the breakdown into its own frame, kept as the differential
oracle.

The single-track case composed ``_service_read_chunk``: decompose the
sector, ask ``TrackBuffer.note_read``, then either charge a buffer
transfer or accumulate ``_position_and_transfer`` into a breakdown the
command overhead had opened through ``Breakdown.charge``.  The
multi-track case is the disk's own ``_service_read_span``.
"""

from __future__ import annotations

from typing import Tuple

from repro.sim.stats import Breakdown


def _service_read_chunk(disk, sector: int, count: int, breakdown: Breakdown) -> None:
    cylinder, head, sect = disk.geometry.decompose(sector)
    track_lo = sector - sect
    track_hi = track_lo + disk.geometry.sectors_per_track
    hit = disk.cache.note_read((cylinder, head), track_lo, track_hi, sector, count)
    if hit:
        transfer = disk.mechanics.transfer_time(count)
        breakdown.charge("transfer", transfer)
        disk.clock.advance(transfer)
        return
    disk._position_and_transfer(sector, count, breakdown)


def reference_read(
    disk, sector: int, count: int = 1, charge_scsi: bool = True
) -> Tuple[bytes, Breakdown]:
    disk._check_run(sector, count)
    if disk.faults is not None:
        disk.faults.before_read(sector, count)
    breakdown = Breakdown()
    start = disk.clock.now
    if charge_scsi:
        breakdown.charge("scsi", disk.spec.scsi_overhead)
        disk.clock.advance(disk.spec.scsi_overhead)
    per_track = disk.geometry.sectors_per_track
    if count <= per_track - sector % per_track:
        _service_read_chunk(disk, sector, count, breakdown)
    else:
        chunks = []
        remaining = count
        cursor = sector
        while remaining > 0:
            chunk = disk._chunk_within_track(cursor, remaining)
            chunks.append((cursor, chunk))
            cursor += chunk
            remaining -= chunk
        disk._service_read_span(chunks, breakdown)
    counters = disk.counters
    counters.reads += 1
    counters.sectors_read += count
    counters.busy_time += disk.clock.now - start
    if disk._data is None:
        return b"", breakdown
    lo = sector * disk.sector_bytes
    return bytes(memoryview(disk._data)[lo : lo + count * disk.sector_bytes]), breakdown
