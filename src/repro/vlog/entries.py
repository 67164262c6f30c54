"""On-disk format of virtual-log map records.

Each record occupies one physical block and holds one *chunk* of the
indirection map (a run of logical-to-physical entries, 4 bytes each, as in
Section 4.2: "Each physical block requires a four byte map entry") plus the
log-threading pointers of Figure 3:

* ``prev_root`` -- the previous log tail (the backward-chain pointer);
* ``bypass1``/``bypass2`` -- the out-pointers of the record this append
  *overwrote*, so that recycling the overwritten block never disconnects
  older live records from the tail.

The paper's Figure 3b carries a single bypass pointer; because an
overwritten record may itself have been an overwrite root with two
out-edges, we carry both of its pointers forward.  This preserves the exact
graph invariant recovery needs -- removing a node while re-homing *all* its
out-edges keeps every other node reachable -- and is property-tested in
``tests/vlog/test_virtual_log.py``.

Records end with a CRC32 standing in for the paper's "cryptographically
signed map entries": it lets the scan-based recovery path distinguish map
records from data blocks (collisions with random data are possible for a
checksum but not for the real signature; the simulation never manufactures
colliding data).

There is one serialiser, :func:`pack_record`, and one parser,
:meth:`MapRecord.unpack`, whose validity test is :func:`record_header`.
The log's append path -- one record per logical write -- calls
``pack_record`` with the fields it holds, so no :class:`MapRecord` is
built only to be packed and dropped, and the entry count is validated
before the log allocates the record a home.  Recovery's full-disk scan
stops at :func:`record_header` and keeps a sequence number and the
bytes; only the records its walk reaches are parsed into a
:class:`MapRecord`.
The field-by-field serialiser this replaced is
``tests/vlog/reference_record.py``.
"""

from __future__ import annotations

import struct
import sys
import zlib
from array import array
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

#: Map-entry value meaning "logical block not mapped".
UNMAPPED = 0xFFFFFFFF

#: The ``array`` type code of a map entry: unsigned 32 bits.  Where
#: that code's machine words are also the record's little-endian 32-bit
#: words (every CPython platform in use), an entry ``array`` is a record
#: body as it lies and :func:`pack_record` takes its bytes whole.
ENTRY_TYPECODE = "I"
_ARRAY_IS_BODY = array(ENTRY_TYPECODE).itemsize == 4 and sys.byteorder == "little"

#: The paper's map-record size: one 512-byte sector (Section 4.2).
MAP_RECORD_BYTES = 512

#: Record magic ("virtual log map, version 1").
MAGIC = b"VLOGMAP1"

#: Chunk ids at or above this value are transaction *commit records*
#: (payload: the committed transaction id).  They ride the same tree as
#: map chunks -- Section 3.2's "base mechanism upon which efficient
#: transactions can be built", made concrete.
COMMIT_CHUNK_BASE = 0x4000_0000

#: Chunk ids in ``[QUARANTINE_CHUNK_BASE, COMMIT_CHUNK_BASE)`` carry the
#: resilience layer's bad-sector quarantine table (payload: quarantined
#: physical sector numbers).  Persisting the table *through the virtual
#: log itself* -- rather than at a second fixed location -- means it
#: inherits the log's crash atomicity and recovery for free, and costs no
#: reserved blocks.  Real indirection-map chunk ids stay far below this
#: (the map covers physical blocks, so ids are bounded by disk capacity).
QUARANTINE_CHUNK_BASE = 0x3000_0000

#: Header: magic, chunk_id, n_entries, seqno, prev_root, bypass1, bypass2,
#: txn_id (0 = not part of a transaction).
_HEADER = struct.Struct("<8sIIqqqqI")

#: Trailing CRC32.
_TRAILER = struct.Struct("<I")

#: Largest size that cannot hold a record: header, trailer and one entry.
_MIN_BLOCK_BYTES = _HEADER.size + _TRAILER.size + 4


def entries_per_chunk(block_size: int) -> int:
    """Map entries per record for a physical block size, rounded down to a
    multiple of 8 so chunk boundaries align with typical extent sizes."""
    if block_size <= _MIN_BLOCK_BYTES:
        raise ValueError(f"block size {block_size} too small for a map record")
    raw = (block_size - _HEADER.size - _TRAILER.size) // 4
    return max(8, (raw // 8) * 8)


#: ``block size -> entries_per_chunk(block size)`` and ``entry count ->
#: Struct("<nI")``: lookup tables of constants (as ``_ALIGN_MASKS`` is in
#: the free map), filled on first use, so the serialiser below neither
#: re-derives a capacity nor parses a format string per record.
_CAPACITIES: Dict[int, int] = {}
_ENTRY_STRUCTS: Dict[int, struct.Struct] = {}


def pack_record(
    block_size: int,
    chunk_id: int,
    seqno: int,
    entries: Sequence[int],
    prev_root: Optional[int] = None,
    bypass1: Optional[int] = None,
    bypass2: Optional[int] = None,
    txn_id: int = 0,
) -> bytes:
    """The one record serialiser: exactly ``block_size`` bytes -- header,
    entries, zero padding, trailing CRC32 over all of it.

    The log's append path calls this with the fields in hand (no
    :class:`MapRecord` is built to be packed and dropped); ``entries``
    from the indirection map are an ``array`` of :data:`ENTRY_TYPECODE`
    whose bytes are the body, any other sequence is packed by a
    per-count ``Struct``.  More entries
    than the block holds raise ``ValueError`` before anything is built,
    which is what lets the log validate a record *before* it allocates a
    home for it.
    """
    capacity = _CAPACITIES.get(block_size)
    if capacity is None:
        capacity = _CAPACITIES[block_size] = entries_per_chunk(block_size)
    n = len(entries)
    if n > capacity:
        raise ValueError(f"{n} entries exceed capacity {capacity}")
    if (
        type(entries) is array
        and entries.typecode == ENTRY_TYPECODE
        and _ARRAY_IS_BODY
    ):
        body = entries.tobytes()
    else:
        packer = _ENTRY_STRUCTS.get(n)
        if packer is None:
            packer = _ENTRY_STRUCTS[n] = struct.Struct(f"<{n}I")
        body = packer.pack(*entries)
    payload = b"".join(
        (
            _HEADER.pack(
                MAGIC,
                chunk_id,
                n,
                seqno,
                -1 if prev_root is None else prev_root,
                -1 if bypass1 is None else bypass1,
                -1 if bypass2 is None else bypass2,
                txn_id,
            ),
            body,
            bytes(block_size - _HEADER.size - 4 * n - _TRAILER.size),
        )
    )
    return payload + _TRAILER.pack(zlib.crc32(payload))


@dataclass
class MapRecord:
    """One virtual-log entry: a chunk of the indirection map plus pointers.

    Pointer fields hold physical *block* numbers, or ``None``.
    """

    chunk_id: int
    seqno: int
    entries: List[int] = field(default_factory=list)
    prev_root: Optional[int] = None
    bypass1: Optional[int] = None
    bypass2: Optional[int] = None
    #: transaction id this record belongs to (0 = standalone).
    txn_id: int = 0

    @property
    def is_commit(self) -> bool:
        return self.chunk_id >= COMMIT_CHUNK_BASE

    def pointers(self) -> List[int]:
        """All non-null out-pointers, prev_root first."""
        return [
            p
            for p in (self.prev_root, self.bypass1, self.bypass2)
            if p is not None
        ]

    @classmethod
    def unpack(cls, raw) -> Optional["MapRecord"]:
        """Parse a block; returns ``None`` when it is not a valid record
        (:func:`record_header`'s test), else the header and entry list."""
        header = record_header(raw)
        if header is None:
            return None
        _magic, chunk_id, n_entries, seqno, prev, b1, b2, txn = header
        return cls(
            chunk_id,
            seqno,
            list(struct.unpack_from(f"<{n_entries}I", raw, _HEADER.size)),
            None if prev < 0 else prev,
            None if b1 < 0 else b1,
            None if b2 < 0 else b2,
            txn,
        )


def record_header(raw) -> Optional[Tuple]:
    """The header of the valid record in ``raw`` -- ``(magic, chunk_id,
    n_entries, seqno, prev_root, bypass1, bypass2, txn_id)``, pointers
    raw (``-1`` for none) -- or ``None`` when ``raw`` is not one.

    Validation (magic + CRC + entry-count bound) is what lets recovery
    prune pointers into recycled blocks and lets the scan fallback find
    records at all.  The three tests are a conjunction, so they run
    cheapest first: nearly every block the scan offers is data, and
    eight bytes of magic settle it without a CRC over the block.  ``raw``
    is any buffer: the scan passes views of its track buffer, and fields
    are read out of it where it lies.
    """
    size = len(raw)
    if size <= _MIN_BLOCK_BYTES:
        return None
    header = _HEADER.unpack_from(raw)
    if header[0] != MAGIC:
        return None
    body_end = size - _TRAILER.size
    (stored_crc,) = _TRAILER.unpack_from(raw, body_end)
    if zlib.crc32(raw[:body_end]) != stored_crc:
        return None
    # ``entries_per_chunk(size)``, inlined (``size`` is known to be large
    # enough), and never more entries than the body has room for.
    room = (body_end - _HEADER.size) // 4
    n_entries = header[2]
    if n_entries > room or n_entries > max(8, (room // 8) * 8):
        return None
    return header
