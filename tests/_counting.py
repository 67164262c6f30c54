"""The ``sys.setprofile`` call counters the complexity guards share.

Host cost is priced in Python-level calls per operation -- a number that
repeats exactly on one interpreter and moves by a call or two between
3.10 and 3.12, where a wall-clock threshold would flap on a shared box.
"""

import sys
from collections import Counter


def _profiled(hook, fn):
    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        return fn()
    finally:
        sys.setprofile(previous)


def count_calls(fn):
    """``fn()`` under ``sys.setprofile``: (Python-level calls, result)."""
    calls = 0

    def profiler(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    result = _profiled(profiler, fn)
    return calls, result


def calls_by_function(fn):
    """``fn()`` under ``sys.setprofile``: (``Counter`` of Python-level
    calls keyed by ``(file name, function name)``, result)."""
    calls = Counter()

    def profiler(frame, event, arg):
        if event == "call":
            code = frame.f_code
            calls[(code.co_filename.rsplit("/", 1)[-1], code.co_name)] += 1

    result = _profiled(profiler, fn)
    return calls, result


def count_sectors_hashed(monkeypatch, module=None, sector_bytes: int = 512) -> list:
    """Count, from here on, the sectors a checksum store hashes.

    Every CRC the store computes goes through its module's ``zlib``
    (``module``, by default the sidecar's,
    ``repro.vlog.resilience.checksum``), which is swapped for one that
    adds ``len(data) // sector_bytes`` to the returned one-item list
    before hashing: work counted in sectors, the same on every
    interpreter.
    """
    import zlib

    if module is None:
        from repro.vlog.resilience import checksum as module

    hashed = [0]

    class _Counting:
        @staticmethod
        def crc32(data, *value):
            hashed[0] += len(data) // sector_bytes
            return zlib.crc32(data, *value)

    monkeypatch.setattr(module, "zlib", _Counting)
    return hashed
