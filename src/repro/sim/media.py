"""Media images: the bytes a simulated disk or stable memory holds.

An image is one private anonymous memory map.  The kernel backs every
page with the shared zero page until a byte of it is written, so an
image costs what was written to it, not its capacity (a ``bytearray`` of
the same size writes zeros into every page before the first request).
It slices, takes slice assignment of the same length, exports a buffer
to ``memoryview``/``hashlib`` and has a fixed length, so every user of
the old ``bytearray`` reads and writes it unchanged.

A stack is a value (DESIGN.md section 6), and a map does not pickle or
copy on its own: :meth:`MediaImage.__reduce__` rebuilds an image from
its written pages, so a ``copy.deepcopy`` or ``pickle`` fork costs what
was written, too.
"""

from __future__ import annotations

import mmap
from typing import Iterable, Tuple

#: A private mapping: pages read before any write share the zero page,
#: and a forked process copies on write instead of sharing the image.
#: Windows maps anonymous memory demand-zero already and takes no flags.
_FLAGS = (
    {"flags": mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS}
    if hasattr(mmap, "MAP_PRIVATE")
    else {}
)
_PAGE = mmap.PAGESIZE
_ZERO_PAGE = bytes(_PAGE)


class MediaImage(mmap.mmap):
    """``nbytes`` of zeros, then ``runs`` of ``(offset, bytes)`` written
    over them -- the shape :meth:`__reduce__` hands back."""

    __slots__ = ()

    def __new__(
        cls, nbytes: int, runs: Iterable[Tuple[int, bytes]] = ()
    ) -> "MediaImage":
        image = super().__new__(cls, -1, nbytes, **_FLAGS)
        for offset, data in runs:
            image[offset : offset + len(data)] = data
        return image

    def _written_runs(self) -> Tuple[Tuple[int, bytes], ...]:
        """Maximal runs of pages holding a non-zero byte, ascending.

        Each page is one C-level compare against a zero page; reading a
        page nothing was written to maps the zero page, so the scan adds
        nothing to the resident set.
        """
        runs = []
        size = len(self)
        start = None
        for lo in range(0, size, _PAGE):
            page = self[lo : lo + _PAGE]
            written = page != _ZERO_PAGE[: len(page)]
            if written and start is None:
                start = lo
            elif not written and start is not None:
                runs.append((start, self[start:lo]))
                start = None
        if start is not None:
            runs.append((start, self[start:size]))
        return tuple(runs)

    def __reduce__(self):
        return type(self), (len(self), self._written_runs())
