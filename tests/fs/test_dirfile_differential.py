"""``repro.fs.dirfile.DirectoryBlock`` (entries beside a maintained packed
image) pinned to the parse-and-repack class it replaced
(``tests/fs/reference_dirfile.py``), plus the parse-once and
corrupt-block behaviour the new class adds.

What reaches the device and the checksum store is ``pack()``, so the
maintained image must be byte-identical to packing the entry dict from
scratch after any sequence of edits -- insertion order, in-place
compaction on removal, a re-added name at the end.
"""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fs.api import CorruptDirectory, FileSystemError
from repro.fs.dirfile import DirectoryBlock
from tests.fs.reference_dirfile import ReferenceDirectoryBlock

_NAMES = st.one_of(
    st.sampled_from([f"small{i:05d}" for i in range(12)]),
    st.sampled_from(["é", "文件-名", "a", "ß" * 40, "x" * 120, "pétit-001"]),
    st.text(
        alphabet=st.characters(
            blacklist_characters="/\x00", blacklist_categories=("Cs",)
        ),
        min_size=1,
        max_size=24,
    ),
)
_OPS = st.lists(
    st.tuples(
        st.sampled_from(["add", "add", "remove", "readd"]),
        _NAMES,
        st.integers(min_value=1, max_value=2**32 - 1),
    ),
    max_size=60,
)


def _assert_same(fast: DirectoryBlock, ref: ReferenceDirectoryBlock) -> None:
    packed = ref.pack()
    assert fast.pack() == packed
    assert list(fast.entries.items()) == list(ref.entries.items())
    assert fast.used_bytes() == ref.used_bytes()
    assert len(fast) == len(ref)
    again = DirectoryBlock.unpack(packed)
    assert list(again.entries.items()) == list(ref.entries.items())
    assert again.pack() == packed
    assert again.used_bytes() == ref.used_bytes()


@given(ops=_OPS, block_size=st.sampled_from([64, 256, 4096]))
@settings(max_examples=150, deadline=None)
def test_any_edit_sequence_packs_like_the_reference(ops, block_size):
    fast = DirectoryBlock(block_size)
    ref = ReferenceDirectoryBlock(block_size)
    for op, name, inum in ops:
        if op == "remove" or (op == "readd" and name in ref.entries):
            if name not in ref.entries:
                with pytest.raises(KeyError):
                    fast.remove(name)
                continue
            assert fast.remove(name) == ref.remove(name)
            _assert_same(fast, ref)
            if op == "remove":
                continue
        assert fast.space_for(name) == ref.space_for(name)
        if not ref.space_for(name):
            with pytest.raises(ValueError):
                fast.add(name, inum)
        else:
            fast.add(name, inum)  # incl. re-pointing a name already there
            ref.add(name, inum)
        assert fast.lookup(name) == ref.lookup(name)
        _assert_same(fast, ref)


def test_constructor_packs_like_the_reference():
    entries = {f"file{i:03d}": i + 1 for i in range(200)}
    entries["文件"] = 7
    assert (
        DirectoryBlock(4096, entries).pack()
        == ReferenceDirectoryBlock(4096, entries).pack()
    )


def test_overfull_constructor_still_fails_at_pack_and_recovers_on_remove():
    entries = {f"n{i:02d}": i + 1 for i in range(8)}  # 8 x 9 bytes > 64
    fast = DirectoryBlock(64, entries)
    ref = ReferenceDirectoryBlock(64, entries)
    with pytest.raises(ValueError):
        ref.pack()
    with pytest.raises(ValueError):
        fast.pack()
    assert not fast.space_for("x")
    assert fast.remove("n03") == ref.remove("n03")
    _assert_same(fast, ref)


def test_block_full_add_still_raises():
    block = DirectoryBlock(4096)
    i = 0
    while block.space_for(f"small{i:05d}"):
        block.add(f"small{i:05d}", i + 1)
        i += 1
    packed = block.pack()
    with pytest.raises(ValueError):
        block.add(f"small{i:05d}", i + 1)
    assert block.pack() == packed and len(block) == i


def test_unpack_of_a_repeated_name_packs_like_the_reference():
    one = struct.pack("<IH", 5, 1) + b"a"
    other = struct.pack("<IH", 9, 1) + b"b"
    raw = one + other + struct.pack("<IH", 6, 1) + b"a"
    raw += bytes(64 - len(raw))
    fast, ref = DirectoryBlock.unpack(raw), ReferenceDirectoryBlock.unpack(raw)
    assert fast.entries == ref.entries == {"a": 6, "b": 9}
    _assert_same(fast, ref)


def test_junk_after_the_terminator_is_not_carried_into_pack():
    raw = struct.pack("<IH", 5, 1) + b"a" + bytes(6) + b"\xffjunk"
    raw += bytes(64 - len(raw))
    fast, ref = DirectoryBlock.unpack(raw), ReferenceDirectoryBlock.unpack(raw)
    _assert_same(fast, ref)


# -- a corrupt block is one typed error ---------------------------------


class TestCorruptBlocks:
    def test_entry_overrunning_the_block(self):
        """At the parent this parsed as the phantom name 'abc\\0\\0...'."""
        raw = struct.pack("<IH", 7, 300) + b"abc"
        raw += bytes(64 - len(raw))
        with pytest.raises(CorruptDirectory):
            DirectoryBlock.unpack(raw)

    def test_undecodable_name(self):
        """At the parent UnicodeDecodeError escaped."""
        raw = struct.pack("<IH", 7, 2) + b"\xff\xfe"
        raw += bytes(64 - len(raw))
        with pytest.raises(CorruptDirectory):
            DirectoryBlock.unpack(raw)

    @pytest.mark.parametrize("name", [b"a/b", b"a\x00b", b"/", b"\x00"])
    def test_name_no_path_could_have_produced(self, name):
        raw = struct.pack("<IH", 7, len(name)) + name
        raw += bytes(64 - len(raw))
        with pytest.raises(CorruptDirectory):
            DirectoryBlock.unpack(raw)

    def test_it_is_a_file_system_error(self):
        assert issubclass(CorruptDirectory, FileSystemError)

    def test_an_entry_ending_exactly_at_the_block_end_is_fine(self):
        name = b"n" * (64 - 6)
        block = DirectoryBlock.unpack(struct.pack("<IH", 3, len(name)) + name)
        assert block.entries == {name.decode(): 3}
        assert not block.space_for("x")


# -- the parse is reused only while its image is what was read ----------


class _OneSlotCache:
    """The two methods ``DirectoryBlock.cached`` needs of a cache."""

    def __init__(self, resident=True):
        self.resident = resident
        self.held = None

    def parsed(self, key):
        return self.held

    def keep_parsed(self, key, parsed):
        if self.resident:
            self.held = parsed


def test_cached_parse_is_reused_for_equal_bytes_only():
    cache = _OneSlotCache()
    raw = DirectoryBlock(256, {"a": 1, "b": 2}).pack()
    first = DirectoryBlock.cached(cache, 9, raw)
    assert DirectoryBlock.cached(cache, 9, bytes(raw)) is first
    # An edit that is written back: the same object stays valid.
    first.add("c", 3)
    assert DirectoryBlock.cached(cache, 9, first.pack()) is first
    # An edit that never reached the cache (the write raised): the bytes
    # read back are the old ones, and the edited parse is not trusted.
    first.remove("a")
    fresh = DirectoryBlock.cached(cache, 9, raw)
    assert fresh is not first
    assert fresh.entries == {"a": 1, "b": 2}
    # A block that is not resident keeps nothing.
    nowhere = _OneSlotCache(resident=False)
    DirectoryBlock.cached(nowhere, 9, raw)
    assert nowhere.held is None
