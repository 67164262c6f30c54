import pytest

from repro.fs.dirfile import DirectoryBlock


class TestDirectoryBlock:
    def test_roundtrip(self):
        block = DirectoryBlock(4096, {"alpha": 3, "beta": 7})
        parsed = DirectoryBlock.unpack(block.pack())
        assert parsed.entries == {"alpha": 3, "beta": 7}

    def test_pack_pads_to_block_size(self):
        assert len(DirectoryBlock(4096, {"a": 1}).pack()) == 4096

    def test_empty_block(self):
        parsed = DirectoryBlock.unpack(DirectoryBlock(4096).pack())
        assert len(parsed) == 0

    def test_add_remove_lookup(self):
        block = DirectoryBlock(4096)
        block.add("f", 12)
        assert block.lookup("f") == 12
        assert block.remove("f") == 12
        assert block.lookup("f") is None

    def test_space_accounting(self):
        block = DirectoryBlock(256)
        name = "n" * 100
        assert block.space_for(name)
        block.add(name, 1)
        # 106 bytes used of 256: a second 100-char entry won't fit.
        assert not block.space_for("m" * 160)
        with pytest.raises(ValueError):
            block.add("m" * 160, 2)

    def test_unicode_names(self):
        block = DirectoryBlock(4096, {"fichier-é": 5})
        parsed = DirectoryBlock.unpack(block.pack())
        assert parsed.lookup("fichier-é") == 5

    def test_many_entries_roundtrip(self):
        entries = {f"file{i:03d}": i + 1 for i in range(200)}
        block = DirectoryBlock(4096, entries)
        parsed = DirectoryBlock.unpack(block.pack())
        assert parsed.entries == entries

    def test_iter_directory_across_blocks(self):
        a = DirectoryBlock(4096, {"x": 1}).pack()
        b = DirectoryBlock(4096, {"y": 2}).pack()
        entries = {}
        for raw in (a, b):
            entries.update(DirectoryBlock.unpack(raw).entries)
        assert entries == {"x": 1, "y": 2}
