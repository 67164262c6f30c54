"""The sha256 pins the identity tests share.

A pin is the hex sha256 of what a run observed -- a report's ``repr``, a
grid's JSON, a media image's bytes, or a running digest a test feeds
step by step -- recorded once and never edited to follow a speed change:
a different digest means the public output moved.

A pin must hold under any ``PYTHONHASHSEED`` (CI's identity step runs
most pinned files under 0, 1 and random).  So what a pin hashes must not depend on hash order: feed
sorted items, never a set's iteration order, and render floats exactly
(``float.hex``) where a ``repr`` would not already.
"""

import hashlib
import json


def sha256_hex(data: bytes) -> str:
    """The pin of ``data``."""
    return hashlib.sha256(data).hexdigest()


def repr_pin(value) -> str:
    """The pin of ``repr(value)``."""
    return sha256_hex(repr(value).encode())


def json_pin(value) -> str:
    """The pin of ``value`` as JSON with sorted keys."""
    return sha256_hex(json.dumps(value, sort_keys=True).encode())


def running_pin(data: bytes = b""):
    """A sha256 a test feeds step by step (``update(bytes)``) and reads
    at the end with ``hexdigest()``, or whose ``digest()`` it feeds to
    another."""
    return hashlib.sha256(data)
