import struct
import zlib

import pytest

from repro.vlog.entries import (
    _HEADER,
    MapRecord,
    UNMAPPED,
    entries_per_chunk,
    pack_record,
)


class TestCapacity:
    def test_4k_block_capacity(self):
        cap = entries_per_chunk(4096)
        assert cap % 8 == 0
        assert 900 <= cap <= 1012  # header + CRC leave ~1008 entries

    def test_too_small_block_rejected(self):
        with pytest.raises(ValueError):
            entries_per_chunk(48)


class TestPackUnpack:
    def test_roundtrip(self):
        record = MapRecord(
            chunk_id=3,
            seqno=42,
            entries=[1, 2, UNMAPPED, 99],
            prev_root=17,
            bypass1=None,
            bypass2=5,
        )
        raw = pack_record(4096, **vars(record))
        assert len(raw) == 4096
        parsed = MapRecord.unpack(raw)
        assert parsed == record

    def test_none_pointers_roundtrip(self):
        record = MapRecord(chunk_id=0, seqno=1, entries=[])
        parsed = MapRecord.unpack(pack_record(4096, **vars(record)))
        assert parsed.prev_root is None
        assert parsed.bypass1 is None
        assert parsed.bypass2 is None

    def test_pointers_helper_filters_none(self):
        record = MapRecord(
            chunk_id=0, seqno=1, entries=[], prev_root=9, bypass2=4
        )
        assert record.pointers() == [9, 4]

    def test_full_capacity_roundtrip(self):
        cap = entries_per_chunk(4096)
        record = MapRecord(chunk_id=1, seqno=2, entries=list(range(cap)))
        parsed = MapRecord.unpack(pack_record(4096, **vars(record)))
        assert parsed.entries == list(range(cap))

    def test_over_capacity_rejected(self):
        cap = entries_per_chunk(4096)
        record = MapRecord(chunk_id=1, seqno=2, entries=[0] * (cap + 1))
        with pytest.raises(ValueError):
            pack_record(4096, **vars(record))


class TestValidation:
    """The CRC/magic validation is what lets recovery prune edges into
    recycled blocks and lets the scan fallback find records at all."""

    def test_garbage_rejected(self):
        assert MapRecord.unpack(b"\xde\xad" * 2048) is None

    def test_zeros_rejected(self):
        assert MapRecord.unpack(bytes(4096)) is None

    def test_short_buffer_rejected(self):
        assert MapRecord.unpack(b"tiny") is None

    def test_single_flipped_bit_rejected(self):
        raw = bytearray(pack_record(4096, 1, 7, [4, 5]))
        raw[100] ^= 0x01
        assert MapRecord.unpack(bytes(raw)) is None

    def test_wrong_magic_rejected(self):
        raw = bytearray(pack_record(4096, 1, 7, []))
        raw[0:8] = b"NOTAMAGI"
        assert MapRecord.unpack(bytes(raw)) is None

    def test_data_block_never_parses(self):
        # Typical file payloads must not masquerade as map records.
        for fill in (b"x", b"\x00", b"\xff", b"ab"):
            block = (fill * 4096)[:4096]
            assert MapRecord.unpack(block) is None

    def test_wrong_magic_with_valid_crc_rejected(self):
        """Magic is tested before the CRC now; a block whose CRC happens
        to be right but whose magic is not must still be refused."""
        raw = bytearray(pack_record(512, 1, 7, []))
        raw[0:8] = b"NOTAMAGI"
        raw[-4:] = _crc_trailer(raw[:-4])
        assert MapRecord.unpack(bytes(raw)) is None

    def test_entry_count_beyond_capacity_rejected(self):
        raw = bytearray(pack_record(512, 1, 7, []))
        struct.pack_into("<I", raw, 12, entries_per_chunk(512) + 1)
        raw[-4:] = _crc_trailer(raw[:-4])
        assert MapRecord.unpack(bytes(raw)) is None

    @pytest.mark.parametrize("size", [57, 58, 59, 60])
    def test_signed_buffer_too_small_for_one_entry_is_none_not_an_error(
        self, size
    ):
        """Regression: a 57-60 byte buffer with a valid magic and CRC made
        ``unpack`` *raise* ``ValueError`` out of ``entries_per_chunk``,
        although its contract is to return ``None``."""
        assert MapRecord.unpack(_signed_header(size)) is None

    def test_entry_count_beyond_a_tiny_buffer_is_none_not_an_error(self):
        # 72 bytes leave room for four entries although the rounded
        # capacity says eight.
        assert entries_per_chunk(72) == 8
        assert MapRecord.unpack(_signed_header(72, n_entries=8)) is None
        assert len(MapRecord.unpack(_signed_header(72, 4)).entries) == 4

    def test_entry_bound_is_entries_per_chunk_at_every_size(self):
        """``unpack`` inlines the capacity arithmetic; it must stay the
        one ``entries_per_chunk`` (and ``pack_record``) use, at every size."""
        for size in list(range(61, 200)) + [512, 1024, 4096]:
            room = (size - _HEADER.size - 4) // 4
            bound = min(entries_per_chunk(size), room)
            accepted = MapRecord.unpack(_signed_header(size, n_entries=bound))
            assert accepted is not None and len(accepted.entries) == bound
            assert MapRecord.unpack(_signed_header(size, bound + 1)) is None

    def test_any_buffer_type_parses(self):
        record = MapRecord(chunk_id=2, seqno=9, entries=[7, 8], bypass1=3)
        raw = pack_record(512, **vars(record))
        framed = b"\xaa" * 512 + raw + b"\xbb" * 512
        assert MapRecord.unpack(memoryview(framed)[512:1024]) == record
        assert MapRecord.unpack(bytearray(raw)) == record


def _crc_trailer(payload) -> bytes:
    return struct.pack("<I", zlib.crc32(bytes(payload)))


def _signed_header(size: int, n_entries: int = 0) -> bytes:
    """A ``size``-byte buffer with a valid magic, header and CRC."""
    header = pack_record(512, 0, 1, [])[:_HEADER.size]
    payload = bytearray(header + bytes(size - _HEADER.size - 4))
    struct.pack_into("<I", payload, 12, n_entries)
    return bytes(payload) + _crc_trailer(payload)
