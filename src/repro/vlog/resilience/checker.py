"""``vlfsck``: an online invariant checker for the Virtual Log Disk.

Runs against a *quiescent* VLD (no host request in flight) and reports
violations instead of asserting, so the torture harness can collect and
attribute them.  Checks, cheapest first:

1. the virtual log's in-memory graph invariants (every live record except
   the tail has a live in-edge; the tail is youngest; edge sets agree);
2. map <-> log agreement: every map chunk with mapped entries has a live
   log record, and every live record's chunk is a known kind;
3. reverse-map bijection with the indirection map;
4. free-map agreement: the set of used sectors equals exactly what the
   mapped blocks + live records + reserved block + quarantine imply;
5. quarantine agreement between the free map and the resilience table.

``deep=True`` additionally reads every live block off the (quiescent)
disk image: data blocks must pass their sector checksums, and each live
record must parse and carry its chunk's current contents.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import nsmallest
from typing import List

from repro.vlog.entries import (
    COMMIT_CHUNK_BASE,
    QUARANTINE_CHUNK_BASE,
    MapRecord,
)


@dataclass
class Violation:
    """One broken invariant."""

    kind: str
    detail: str

    def __str__(self) -> str:  # pragma: no cover - repr convenience
        return f"[{self.kind}] {self.detail}"


@dataclass
class FsckReport:
    """Everything one ``vlfsck`` pass found."""

    violations: List[Violation] = field(default_factory=list)
    checked_records: int = 0
    checked_blocks: int = 0
    deep: bool = False

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, kind: str, detail: str) -> None:
        self.violations.append(Violation(kind, detail))

    def summary(self) -> str:
        if self.ok:
            return (
                f"vlfsck clean ({self.checked_records} records, "
                f"{self.checked_blocks} data blocks"
                f"{', deep' if self.deep else ''})"
            )
        head = "; ".join(str(v) for v in self.violations[:5])
        more = len(self.violations) - 5
        return f"vlfsck: {len(self.violations)} violation(s): {head}" + (
            f" (+{more} more)" if more > 0 else ""
        )


def vlfsck(vld, deep: bool = False) -> FsckReport:
    """Check a quiescent :class:`VirtualLogDisk`; returns the report."""
    report = FsckReport(deep=deep)
    _check_vlog_graph(vld, report)
    _check_map_log_agreement(vld, report)
    _check_reverse_map(vld, report)
    _check_freemap(vld, report)
    _check_quarantine(vld, report)
    if deep:
        _check_on_disk(vld, report)
    return report


# ----------------------------------------------------------------------


def _check_vlog_graph(vld, report: FsckReport) -> None:
    for problem in vld.vlog.invariant_violations():
        report.add("vlog-graph", problem)


def _check_map_log_agreement(vld, report: FsckReport) -> None:
    imap = vld.imap
    for chunk_id in range(imap.num_chunks):
        mapped = any(
            e != 0xFFFFFFFF for e in imap.chunk_entries(chunk_id)
        )
        if mapped and vld.vlog.location_of(chunk_id) is None:
            report.add(
                "map-chunk-unlogged",
                f"chunk {chunk_id} has mapped entries but no live record",
            )
    for block in vld.vlog.live_blocks():
        chunk_id = vld.vlog.chunk_of_block(block)
        if chunk_id is None:
            continue
        if chunk_id >= COMMIT_CHUNK_BASE:
            continue
        if chunk_id >= QUARANTINE_CHUNK_BASE:
            continue
        if chunk_id >= imap.num_chunks:
            report.add(
                "record-chunk-range",
                f"live record at block {block} names unknown chunk "
                f"{chunk_id}",
            )


def _check_reverse_map(vld, report: FsckReport) -> None:
    expected = {}
    for lba, physical in vld.imap.items():
        if physical in expected:
            report.add(
                "map-aliased",
                f"physical block {physical} mapped by logical "
                f"{expected[physical]} and {lba}",
            )
            continue
        expected[physical] = lba
    if expected != vld.reverse:
        missing = sorted(set(expected) - set(vld.reverse))[:4]
        extra = sorted(set(vld.reverse) - set(expected))[:4]
        wrong = sorted(
            p
            for p in set(expected) & set(vld.reverse)
            if expected[p] != vld.reverse[p]
        )[:4]
        report.add(
            "reverse-map",
            f"reverse map desynchronised (missing={missing}, "
            f"extra={extra}, wrong={wrong})",
        )


def _expected_used_sectors(vld) -> set:
    spb = vld.sectors_per_block
    map_spb = vld.vlog.sectors_per_block
    used = set(
        range(
            vld.POWER_DOWN_BLOCK * spb, (vld.POWER_DOWN_BLOCK + 1) * spb
        )
    )
    for _lba, physical in vld.imap.items():
        used.update(range(physical * spb, (physical + 1) * spb))
    for record in vld.vlog.live_blocks():
        used.update(range(record * map_spb, (record + 1) * map_spb))
    used.update(vld.freemap.quarantined_sectors())
    return used


def _check_freemap(vld, report: FsckReport) -> None:
    # Whole sets, not one query a sector: the used set the free map
    # holds (a track at a time, free tracks skipped) against the used
    # set the live state implies.  Same report: the first eight sectors
    # that disagree, ascending.
    expected = _expected_used_sectors(vld)
    freemap = vld.freemap
    geometry = vld.disk.geometry
    per_track = geometry.sectors_per_track
    used = set()
    for cylinder in range(geometry.num_cylinders):
        for head in range(geometry.tracks_per_cylinder):
            if freemap.track_free_count(cylinder, head) == per_track:
                continue
            base = geometry.track_start(cylinder, head)
            used.update(range(base, base + per_track))
            used.difference_update(freemap.free_sector_iter(cylinder, head))
    total = vld.disk.total_sectors
    mismatched = nsmallest(
        9, (s for s in used.symmetric_difference(expected) if s < total)
    )
    if mismatched:
        report.add(
            "freemap",
            f"free map disagrees with live state at sectors "
            f"{mismatched[:8]}"
            + ("..." if len(mismatched) > 8 else ""),
        )


def _check_quarantine(vld, report: FsckReport) -> None:
    in_map = set(vld.freemap.quarantined_sectors())
    in_table = set(vld.resilience.quarantine.sectors)
    if in_map != in_table:
        report.add(
            "quarantine",
            f"free-map quarantine {sorted(in_map - in_table)[:4]} / "
            f"table {sorted(in_table - in_map)[:4]} disagree",
        )


def _check_on_disk(vld, report: FsckReport) -> None:
    disk = vld.disk
    spb = vld.sectors_per_block
    checksums = vld.resilience.checksums
    for _lba, physical in vld.imap.items():
        raw = disk.peek(physical * spb, spb)
        report.checked_blocks += 1
        bad = checksums.verify(physical * spb, spb, raw)
        if bad:
            report.add(
                "data-checksum",
                f"physical block {physical} fails sector checksums {bad}",
            )
    map_spb = vld.vlog.sectors_per_block
    for block in vld.vlog.live_blocks():
        raw = disk.peek(block * map_spb, map_spb)
        report.checked_records += 1
        record = MapRecord.unpack(raw)
        if record is None:
            report.add(
                "record-unreadable",
                f"live record block {block} does not parse",
            )
            continue
        chunk_id = vld.vlog.chunk_of_block(block)
        if record.chunk_id != chunk_id:
            report.add(
                "record-chunk-mismatch",
                f"block {block} holds chunk {record.chunk_id}, log "
                f"expects {chunk_id}",
            )
            continue
        if chunk_id is not None and chunk_id < COMMIT_CHUNK_BASE:
            expected = vld._chunk_contents(chunk_id)
            if list(record.entries) != list(expected):
                report.add(
                    "record-stale",
                    f"live record for chunk {chunk_id} at block {block} "
                    "does not carry the chunk's current contents",
                )
