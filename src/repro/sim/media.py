"""Media images: the bytes a simulated disk or stable memory holds.

An image is one private anonymous memory map.  The kernel backs every
page with the shared zero page until a byte of it is written, and
:meth:`MediaImage.store` -- the one way bytes reach an image -- never
writes zeros over media that already read as zero, so an image costs
its non-zero pages, not its capacity and not every page ever written (a
zero-filled file laid down at full size stays unmapped).  It slices and
exports a buffer to ``memoryview``/``hashlib``, so every reader reads it
as the old ``bytearray``.

A stack is a value (DESIGN.md section 6), and a map does not pickle or
copy on its own: :meth:`MediaImage.__reduce__` rebuilds an image from
its non-zero pages, so a ``copy.deepcopy`` or ``pickle`` fork costs
those, too.
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

#: Zeros to compare against, grown to the longest run ever asked for.
#: The simulator's traffic is overwhelmingly zero-filled -- timing
#: studies do not care about contents -- so "is this run all zeros?" is
#: ``_BLANK.startswith(run)``, one C-level memcmp that copies nothing.
#: One buffer, not one per length: LFS segments come in dozens of lengths.
_BLANK = bytes(1 << 16)


def blank(n: int) -> bytes:
    """Shared zero bytes, at least ``n`` of them."""
    global _BLANK
    if len(_BLANK) < n:
        _BLANK = bytes(n)
    return _BLANK


def _zeros_over_zeros(
    media: memoryview, view: memoryview, offset: int, lo: int, hi: int, zeros: bytes
) -> bool:
    """Whether image bytes ``[lo, hi)`` (``media``) and the payload
    (``view``, laid at ``offset``) under them are all zeros; ``zeros`` is
    :func:`blank`.  Both compares read in place, copying nothing."""
    return zeros.startswith(view[lo - offset : hi - offset]) and zeros.startswith(
        media[lo:hi]
    )


class MediaImage(mmap.mmap):
    """``nbytes`` of zeros, then ``runs`` of ``(offset, bytes)`` written
    over them -- the shape :meth:`__reduce__` hands back."""

    __slots__ = ()

    def __new__(
        cls, nbytes: int, runs: Iterable[Tuple[int, bytes]] = ()
    ) -> "MediaImage":
        image = super().__new__(cls, -1, nbytes, **_FLAGS)
        for offset, data in runs:
            image.store(offset, data)
        return image

    def store(self, offset: int, data) -> None:
        """Lay ``data`` (``bytes`` or a ``memoryview``) at ``offset``.

        Zeros over media that already read as zero are not written, so
        their pages stay on the kernel's zero page.  A payload within one
        page is written whole unless both it and the media under it are
        zeros.  A longer one is judged by the image's pages
        (``mmap.PAGESIZE``): each zero page over zero media is skipped
        and the rest goes down in maximal runs.  What the image reads
        back is ``data`` either way.
        """
        n = len(data)
        end = offset + n
        zeros = _BLANK if n <= len(_BLANK) else blank(n)
        zero = zeros.startswith(data)
        if offset // _PAGE == (end - 1) // _PAGE:
            if not zero or not zeros.startswith(self[offset:end]):
                self[offset:end] = data
            return
        media = memoryview(self)
        if zero and zeros.startswith(media[offset:end]):
            return
        # A page can be all zeros only if its first byte is, so the
        # candidates are the zero bytes among the pages' first bytes.  A
        # stretch of consecutive candidates is tested whole, and page by
        # page only if some page of it is not zeros over zeros.
        if type(data) is not bytes:
            data = bytes(data)
        base = offset - offset % _PAGE
        if base == offset:
            heads = data[::_PAGE]
        else:
            heads = data[:1] + data[base + _PAGE - offset :: _PAGE]
        j = heads.find(0)
        if j < 0:
            self[offset:end] = data
            return
        view = memoryview(data)
        cursor = offset
        while j >= 0:
            tail = heads[j:]
            stop = j + len(tail) - len(tail.lstrip(b"\0"))
            lo = max(offset, base + j * _PAGE)
            hi = min(end, base + stop * _PAGE)
            spans = [(lo, hi)]
            if not _zeros_over_zeros(media, view, offset, lo, hi, zeros):
                spans = []
                if stop - j > 1:  # else that was the one page's test
                    for page in range(j, stop):
                        lo = max(offset, base + page * _PAGE)
                        hi = min(end, base + (page + 1) * _PAGE)
                        if _zeros_over_zeros(media, view, offset, lo, hi, zeros):
                            spans.append((lo, hi))
            for lo, hi in spans:
                if cursor < lo:
                    self[cursor:lo] = view[cursor - offset : lo - offset]
                cursor = hi
            j = heads.find(0, stop)
        if cursor < end:
            self[cursor:end] = view[cursor - offset :]

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
