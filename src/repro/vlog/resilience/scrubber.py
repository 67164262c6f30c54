"""Idle-time media scrubber: migrate live data off failing sectors.

The read path reports every sector that needed a retry (or failed outright)
as a *suspect*; during idle periods -- before the compactor gets the
remaining budget -- the scrubber works through the suspect queue:

* a suspect holding a live **data block** is migrated: quarantine first
  (so the allocator can never hand the sector back), eagerly rewrite the
  block elsewhere, commit the map chunk through the log, free the old copy
  (the quarantined sector stays used forever);
* a suspect holding a live **log record** is relocated through the log
  itself (append a fresh copy, recycle the old block);
* a **free** suspect is simply quarantined.

After a pass the quarantine table is persisted through the log, so a crash
immediately after scrubbing still recovers the full quarantine.  The
power-down record's block is immovable and is skipped (and counted).
"""

from __future__ import annotations

from typing import List

from repro.vlog.recovery import SALVAGE_ROUNDS
from repro.vlog.resilience.retry import MediaError


class MediaScrubber:
    """Works the resilience controller's suspect queue during idle time."""

    def __init__(self, controller) -> None:
        self.controller = controller
        self.vld = controller.vld
        self.sectors_scrubbed = 0
        self.blocks_migrated = 0
        self.records_relocated = 0
        self.sectors_quarantined = 0
        self.skipped_immovable = 0
        #: Suspects whose data could not be read back even with retries --
        #: genuine media loss; the mapping is left in place so the host
        #: keeps seeing the error rather than silent zeros.
        self.lost_sectors: List[int] = []

    @property
    def pending(self) -> bool:
        """True when suspects are queued (the VLD's scrub worker asks
        first: a VLD with no observed degradation never pays a cycle of
        scrubbing)."""
        return bool(self.controller.suspects)

    def run_for(self, seconds: float) -> float:
        """Scrub until the suspect queue drains or the idle budget is
        spent; returns the simulated time actually used."""
        if not seconds >= 0.0:
            raise ValueError("idle budget must be non-negative")
        clock = self.vld.disk.clock
        start = clock.now
        deadline = start + seconds
        controller = self.controller
        progressed = False
        while controller.suspects and clock.now < deadline:
            sector = controller.suspects.pop(0)
            self._scrub_sector(sector)
            progressed = True
        if progressed:
            controller.persist_quarantine()
        return clock.now - start

    # ------------------------------------------------------------------

    def _scrub_sector(self, sector: int) -> None:
        vld = self.vld
        controller = self.controller
        if sector in controller.quarantine:
            return
        self.sectors_scrubbed += 1
        spb = vld.sectors_per_block
        if sector // spb == vld.POWER_DOWN_BLOCK:
            # The fixed-location record cannot move; leave the sector be.
            self.skipped_immovable += 1
            return
        block = sector // spb
        if block in vld.reverse:
            self._migrate_data_block(block, sector)
            return
        map_spb = vld.vlog.sectors_per_block
        record_block = sector // map_spb
        chunk_id = vld.vlog.chunk_of_block(record_block)
        if chunk_id is not None:
            # Quarantine first: the relocation append must not be offered
            # the very sector it is fleeing.
            controller.quarantine_sector(sector)
            self.sectors_quarantined += 1
            vld.vlog.relocate(chunk_id)
            self.records_relocated += 1
            return
        # Nothing lives there: retire the sector and move on.
        controller.quarantine_sector(sector)
        self.sectors_quarantined += 1

    def _migrate_data_block(self, block: int, sector: int) -> None:
        vld = self.vld
        controller = self.controller
        spb = vld.sectors_per_block
        lba = vld.reverse[block]
        controller.quarantine_sector(sector)
        self.sectors_quarantined += 1
        data = None
        for _ in range(SALVAGE_ROUNDS):
            try:
                data = controller.read_sectors(block * spb, spb)
                break
            except MediaError:
                continue
        if data is None:
            # Genuine media loss: the mapping is left in place so the
            # host keeps seeing the error rather than silent zeros.
            self.lost_sectors.append(sector)
            return
        new_block = vld.allocator.allocate()
        chunk_id = vld.move_block(lba, block, new_block, data)
        vld.vlog.append(chunk_id, vld.imap.chunk_entries(chunk_id))
        # Free the old copy; the quarantined sector inside it stays used.
        vld.allocator.free_block(block)
        self.blocks_migrated += 1
