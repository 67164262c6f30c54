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
