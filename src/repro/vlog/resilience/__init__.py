"""Media-fault resilience for the Virtual Log Disk.

The paper's reliability story (Section 3.2) covers *crashes*; this layer
covers the *medium*: per-sector checksums verified on read, a bounded
retry policy with deterministic backoff, a persistent bad-sector
quarantine integrated with the free map, an idle-time scrubber that
migrates live data off failing sectors, and a ``vlfsck`` invariant
checker.  Everything is out-of-band with respect to simulated time except
retries and scrubbing, so with no faults injected the VLD's timing is
bit-for-bit identical to the layer being absent.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, List, Optional

from repro._lazy import lazy_exports
from repro.blockdev.interpose import DeviceCrashed, DeviceFault
from repro.sim.stats import Breakdown
from repro.vlog.entries import entries_per_chunk
from repro.vlog.resilience.checksum import ChecksumStore
from repro.vlog.resilience.quarantine import QuarantineTable
from repro.vlog.resilience.retry import MediaError, RetryPolicy
from repro.vlog.resilience.scrubber import MediaScrubber

if TYPE_CHECKING:
    # The offline checker: loaded by its first user, not by every VLD.
    from repro.vlog.resilience.checker import FsckReport, Violation, vlfsck

__all__ = [
    "ChecksumStore",
    "FsckReport",
    "MediaError",
    "MediaScrubber",
    "QuarantineTable",
    "ResilienceController",
    "RetryPolicy",
    "Violation",
    "vlfsck",
]


class ResilienceController:
    """Ties checksums, retries, quarantine, and the scrubber to one VLD.

    Created by every :class:`~repro.vlog.vld.VirtualLogDisk`; attaches the
    checksum sidecar to the disk and owns the suspect queue the scrubber
    drains.
    """

    def __init__(self, vld) -> None:
        self.vld = vld
        self.disk = vld.disk
        self.policy = RetryPolicy()
        self.checksums = ChecksumStore(self.disk._data, self.disk.sector_bytes)
        self.disk.checksums = self.checksums
        self.quarantine = QuarantineTable(
            entries_per_chunk(vld.map_record_bytes)
        )
        #: FIFO of sectors that needed a retry or failed a read; volatile
        #: (suspects are re-discovered by the reads that hit them again).
        self.suspects: List[int] = []
        self.media_errors = 0
        self.retries = 0
        self.checksum_failures = 0
        #: The idle-time scrubber.
        self.scrubber = MediaScrubber(self)

    # ------------------------------------------------------------------
    # The verified, retried read path
    # ------------------------------------------------------------------

    def read_sectors(
        self,
        sector: int,
        count: int,
        breakdown: Optional[Breakdown] = None,
    ) -> bytes:
        """Read a sector run with checksum verification and retries.

        Raises :class:`MediaError` when the policy is exhausted; backoff
        pauses are charged as ``locate`` time (the head re-settling).
        ``DeviceCrashed`` is *not* retried -- a dying drive is not a
        marginal sector.
        """
        disk = self.disk
        attempt = 1
        last_fault: Optional[DeviceFault] = None
        while True:
            failed_sector: Optional[int] = None
            data: Optional[bytes] = None
            try:
                data, cost = disk.read(sector, count, charge_scsi=False)
                if breakdown is not None:
                    breakdown.add(cost)
            except DeviceCrashed:
                raise
            except DeviceFault as fault:
                last_fault = fault
                failed_sector = (
                    fault.sector if fault.sector is not None else sector
                )
            if data is not None:
                bad = self.checksums.verify(sector, count, data)
                if not bad:
                    return data
                self.checksum_failures += 1
                failed_sector = bad[0]
                last_fault = None
            assert failed_sector is not None
            self.note_suspect(failed_sector)
            if attempt >= self.policy.max_attempts:
                self.media_errors += 1
                error = MediaError(
                    f"sector {failed_sector} unreadable after "
                    f"{attempt} attempt(s)",
                    op="read",
                    sector=failed_sector,
                    count=count,
                    attempt=attempt,
                )
                if last_fault is not None:
                    raise error from last_fault
                raise error
            self.retries += 1
            pause = self.policy.backoff(attempt)
            if pause > 0.0:
                if breakdown is not None:
                    breakdown.charge("locate", pause)
                disk.clock.advance(pause)
            attempt += 1

    # ------------------------------------------------------------------
    # Quarantine plumbing
    # ------------------------------------------------------------------

    def note_suspect(self, sector: int) -> None:
        """Queue a sector for idle-time scrubbing (idempotent)."""
        if sector in self.quarantine or sector in self.suspects:
            return
        self.suspects.append(sector)

    def quarantine_sector(self, sector: int) -> bool:
        """Retire one sector in both the table and the free map."""
        fresh = self.quarantine.add(sector)
        if fresh:
            self.vld.freemap.quarantine(sector)
            self.checksums.forget(sector)
        return fresh

    def persist_quarantine(self) -> Breakdown:
        """Write the quarantine table through the virtual log (no-op when
        the on-disk copy is current)."""
        breakdown = Breakdown()
        if not self.quarantine.dirty:
            return breakdown
        for chunk_id in self.quarantine.chunk_ids():
            breakdown.add(
                self.vld.vlog.append(
                    chunk_id, self.quarantine.chunk_payload(chunk_id)
                )
            )
        self.quarantine.dirty = False
        return breakdown

    def load_quarantine(self, chunks: Dict[int, Iterable[int]]) -> None:
        """Install a recovered quarantine (table + free map), typically
        *before* the space rebuild so the blanket ``mark_free`` skips the
        retired sectors automatically."""
        self.quarantine.load(chunks)
        self.vld.freemap.set_quarantined(self.quarantine.sectors)


__getattr__, __dir__ = lazy_exports(__name__)
