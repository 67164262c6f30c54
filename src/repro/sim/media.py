"""Media images: the bytes a simulated disk or stable memory holds.

An image is one private anonymous memory map.  The kernel backs every
page with the shared zero page until a byte of it is written, and
:meth:`MediaImage.store` -- the one way bytes reach an image -- never
writes zeros over media that already read as zero, so an image costs
its non-zero pages, not its capacity and not every page ever written (a
zero-filled file laid down at full size stays unmapped).  It slices and
exports a buffer to ``memoryview``/``hashlib``, so every reader reads it
as the old ``bytearray``.

An image also remembers, one byte per 4 KB page, which pages a
checksum verification found clean (DESIGN.md section 10, "Verify
once"): the resilience layer marks a run of whole pages after a verify
that finds no bad sector and skips the next verify of a run whose pages
are all marked.  :meth:`MediaImage.store`, the one writer, clears the
marks of the pages it touches, so a mark only ever speaks of bytes that
have not changed since.

A stack is a value (DESIGN.md section 6), and a map does not pickle or
copy on its own: :meth:`MediaImage.__reduce__` rebuilds an image from
its non-zero pages, so a ``copy.deepcopy`` or ``pickle`` fork costs
those, too.  A fork starts with no page marked.
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
#: The unit of a "verified" mark: the VLD's 4 KB block, whatever the
#: operating system's page size.
_MARK = 4096

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

    #: ``_verified[p]`` is 1 while 4 KB page ``p`` is as a clean verify
    #: last saw it.
    __slots__ = ("_verified",)

    def __new__(
        cls, nbytes: int, runs: Iterable[Tuple[int, bytes]] = ()
    ) -> "MediaImage":
        image = super().__new__(cls, -1, nbytes, **_FLAGS)
        image._verified = bytearray(-(-nbytes // _MARK))
        for offset, data in runs:
            image.store(offset, data)
        return image

    def is_verified(self, offset: int, nbytes: int) -> bool:
        """Whether bytes ``[offset, offset + nbytes)`` are whole pages,
        every one marked by :meth:`mark_verified` and not written since."""
        if offset % _MARK or nbytes % _MARK:
            return False
        first = offset // _MARK
        if nbytes == _MARK:
            return self._verified[first] == 1
        return self._verified.find(0, first, first + nbytes // _MARK) < 0

    def mark_verified(self, offset: int, nbytes: int) -> None:
        """Mark the pages of a whole-page run a verify found clean; a
        run that is not whole pages marks nothing."""
        if offset % _MARK or nbytes % _MARK:
            return
        first = offset // _MARK
        pages = nbytes // _MARK
        if pages == 1:
            self._verified[first] = 1
        else:
            self._verified[first : first + pages] = b"\x01" * pages

    def store(self, offset: int, data) -> bool:
        """Lay ``data`` (``bytes`` or a ``memoryview``) at ``offset``;
        return whether it is all zeros.

        Zeros over media that already read as zero are not written, so
        their pages stay on the kernel's zero page.  A payload within one
        page is written whole unless both it and the media under it are
        zeros.  A longer one is judged by the image's pages
        (``mmap.PAGESIZE``): each zero page over zero media is skipped
        and the rest goes down in maximal runs.  What the image reads
        back is ``data`` either way, and the pages of the whole run lose
        their verified marks.
        """
        n = len(data)
        end = offset + n
        first = offset // _MARK
        last = (end - 1) // _MARK
        zeros = _BLANK if n <= len(_BLANK) else blank(n)
        zero = zeros.startswith(data)
        if first == last:
            # Within one 4 KB page, so within one of the image's pages
            # (a multiple of 4 KB); a longer payload within one of them
            # meets the same rule below.
            self._verified[first] = 0
            if not zero or not zeros.startswith(self[offset:end]):
                self[offset:end] = data
            return zero
        self._verified[first : last + 1] = bytes(last + 1 - first)
        media = memoryview(self)
        if zero and zeros.startswith(media[offset:end]):
            return True
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
            return zero
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
        return zero

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
