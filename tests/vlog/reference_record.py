"""The field-by-field record serialiser: the reference the differential
test compares :func:`repro.vlog.entries.pack_record` against.

This is the body ``MapRecord.pack`` had before the record image was
built once (DESIGN.md section 19): capacity re-derived per call, a
formatted ``struct.pack`` for the entries, three concatenations.  Moved
here verbatim (``self`` became the ``record`` argument) because nothing
in ``src/`` calls it.
"""

import struct
import zlib

from repro.vlog.entries import MAGIC, MapRecord, entries_per_chunk

_HEADER = struct.Struct("<8sIIqqqqI")
_TRAILER = struct.Struct("<I")


def reference_pack(record: MapRecord, block_size: int) -> bytes:
    """Serialise to exactly ``block_size`` bytes with a trailing CRC."""
    self = record
    capacity = entries_per_chunk(block_size)
    if len(self.entries) > capacity:
        raise ValueError(
            f"{len(self.entries)} entries exceed capacity {capacity}"
        )
    header = _HEADER.pack(
        MAGIC,
        self.chunk_id,
        len(self.entries),
        self.seqno,
        -1 if self.prev_root is None else self.prev_root,
        -1 if self.bypass1 is None else self.bypass1,
        -1 if self.bypass2 is None else self.bypass2,
        self.txn_id,
    )
    body = struct.pack(f"<{len(self.entries)}I", *self.entries)
    padding = bytes(block_size - len(header) - len(body) - _TRAILER.size)
    payload = header + body + padding
    crc = zlib.crc32(payload)
    return payload + _TRAILER.pack(crc)
