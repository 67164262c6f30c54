"""A guard that counts, not times: a scan recovery parses exactly the
records its walk reads (DESIGN.md section 10, "One scan").

A VLD is written with the verify-once guard's pattern and crashed with
no power-down, so ``recover()`` scans the disk for the youngest map
record.  The scan keeps a sequence number and the bytes of each record
it finds; only the tree walk from the tail parses a record, so the
number of ``MapRecord.unpack`` calls is ``outcome.records_read``, and
what the scan holds per record is its bytes, not an entry list.  A scan
that parsed every record it found made 698 calls against 7 read at
3 000 writes, and its tracemalloc peak grew by ~4 350 bytes per record
found.
"""

import tracemalloc

from repro.disk.disk import Disk
from repro.disk.specs import ST19101
from repro.vlog import recovery
from repro.vlog.entries import MapRecord
from repro.vlog.vld import VirtualLogDisk

#: Peak bytes ``recover()`` may grow by per record its scan found: the
#: record's 512 bytes, a sequence number and two dict slots fit.
PEAK_BYTES_PER_FOUND_RECORD_CEILING = 1024


def _crashed_vld(writes):
    vld = VirtualLogDisk(Disk(ST19101, num_cylinders=4))
    for i in range(writes):
        lba = (i * 37) % 600
        vld.write_block(lba, bytes([1 + i % 251]) * vld.block_size)
    vld.crash()
    return vld


def _found_by_scan(monkeypatch):
    """Records each ``scan_records`` call of a recovery found, in order."""
    found = []
    scan = recovery.scan_records

    def spy(*args, **kwargs):
        result = scan(*args, **kwargs)
        found.append(len(result[0]))
        return result

    monkeypatch.setattr(recovery, "scan_records", spy)
    return found


def _scan_recovery(writes, monkeypatch):
    """``recover()`` of a crashed VLD: (outcome, records the scan found,
    ``MapRecord.unpack`` calls, tracemalloc peak in bytes)."""
    vld = _crashed_vld(writes)
    found = _found_by_scan(monkeypatch)
    parsed = 0
    unpack = MapRecord.unpack.__func__

    def counting_unpack(cls, raw):
        nonlocal parsed
        parsed += 1
        return unpack(cls, raw)

    monkeypatch.setattr(MapRecord, "unpack", classmethod(counting_unpack))
    tracemalloc.start()
    try:
        outcome = vld.recover()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert outcome.scanned and not outcome.degraded and len(found) == 1
    return outcome, found[0], parsed, peak


def test_a_scan_recovery_parses_only_the_records_it_reads(monkeypatch):
    for writes in (300, 3000):
        outcome, found, parsed, _peak = _scan_recovery(writes, monkeypatch)
        assert found > outcome.records_read
        assert parsed == outcome.records_read


def test_the_scan_holds_bytes_not_entry_lists(monkeypatch):
    _outcome, few, _parsed, low = _scan_recovery(300, monkeypatch)
    _outcome, many, _parsed, high = _scan_recovery(3000, monkeypatch)
    assert many - few > 300
    assert (high - low) / (many - few) <= PEAK_BYTES_PER_FOUND_RECORD_CEILING
