"""The small-file benchmark (Figure 6).

"We create 1500 1 KB files, read them back after a cache flush, and delete
them.  The benchmark is run on empty disks."  (Section 5.1, after the
original LFS and Logical Disk studies.)

Per-phase elapsed simulated time is returned; the harness normalizes each
stack's phases to UFS-on-regular-disk as the paper's Figure 6 does.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.fs.api import FileSystem

#: Each file's size: 1 KB.
FILE_BYTES = 1024


@dataclass
class SmallFileResult:
    create_seconds: float
    read_seconds: float
    delete_seconds: float
    num_files: int

    def phase(self, name: str) -> float:
        return {
            "create": self.create_seconds,
            "read": self.read_seconds,
            "delete": self.delete_seconds,
        }[name]


def run_small_file(
    fs: FileSystem,
    num_files: int = 1500,
    verify: bool = False,
) -> SmallFileResult:
    """Create / read / delete ``num_files`` small files in the root."""
    clock = fs.clock  # every implementation exposes its clock
    data = bytes(FILE_BYTES)
    names = [f"/small{i:05d}" for i in range(num_files)]

    start = clock.now
    for name in names:
        fs.create(name)
        fs.write(name, 0, data)
    create_seconds = clock.now - start

    fs.sync()
    fs.drop_caches()

    start = clock.now
    for name in names:
        content, _ = fs.read(name, 0, FILE_BYTES)
        if verify and content != data:
            raise AssertionError(f"read-back mismatch for {name}")
    read_seconds = clock.now - start

    start = clock.now
    for name in names:
        fs.unlink(name)
    delete_seconds = clock.now - start

    return SmallFileResult(
        create_seconds=create_seconds,
        read_seconds=read_seconds,
        delete_seconds=delete_seconds,
        num_files=num_files,
    )
