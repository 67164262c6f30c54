"""Content-addressed result cache for sweep points.

Each point's value is stored as one JSON file whose name is the SHA-256
of the *content* that determines the result:

* the point function's fully-qualified name,
* the canonicalized (sorted-key JSON) parameter dict and seed,
* an environment fingerprint combining a **code fingerprint** (a hash
  over every ``.py`` file of the ``repro`` source tree) with a
  **platform-spec fingerprint** (the reprs of every registered disk and
  host spec).

Any source edit, spec change, or parameter change therefore produces a
different key -- stale entries are never *invalidated*, they are simply
never addressed again.  Corrupt, truncated, or mismatched entries are
treated as misses, not errors: the cache can always be rebuilt by
recomputing.

Values must be JSON-serializable; they are canonicalized through a JSON
round-trip on both the put and get paths so cached and freshly computed
results compare equal (tuples become lists, float reprs are exact).
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from functools import lru_cache
from typing import Any, Dict, Optional, Tuple

#: Bump when the on-disk payload layout changes incompatibly.
SCHEMA = 1


@lru_cache(maxsize=None)
def code_fingerprint(root: Optional[str] = None) -> str:
    """Hash every ``.py`` file under ``root`` (default: the ``repro``
    package directory) -- path and contents both contribute."""
    if root is None:
        import repro

        root = os.path.dirname(os.path.abspath(repro.__file__))
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(root)):
        dirnames.sort()
        for filename in sorted(filenames):
            if not filename.endswith(".py"):
                continue
            path = os.path.join(dirpath, filename)
            digest.update(os.path.relpath(path, root).encode())
            digest.update(b"\0")
            with open(path, "rb") as fh:
                digest.update(fh.read())
            digest.update(b"\0")
    return digest.hexdigest()


def spec_fingerprint() -> str:
    """Hash the registered disk and host parameter sets (they are frozen
    dataclasses, so ``repr`` covers every field)."""
    from repro.disk.specs import DISKS
    from repro.hosts.specs import HOSTS

    digest = hashlib.sha256()
    for registry in (DISKS, HOSTS):
        for name in sorted(registry):
            digest.update(name.encode())
            digest.update(b"\0")
            digest.update(repr(registry[name]).encode())
            digest.update(b"\0")
    return digest.hexdigest()


def environment_fingerprint() -> str:
    """The combined fingerprint mixed into every cache key."""
    return hashlib.sha256(
        f"{SCHEMA}\0{code_fingerprint()}\0{spec_fingerprint()}".encode()
    ).hexdigest()


def canonicalize(value: Any) -> Any:
    """JSON round-trip, so cached and fresh values compare equal."""
    return json.loads(json.dumps(value))


class ResultCache:
    """A directory of content-addressed sweep-point results.

    Args:
        directory: Where entries live (created lazily on first put).
        fingerprint: Environment fingerprint override; defaults to
            :func:`environment_fingerprint`.  Tests inject explicit
            values to exercise invalidation without editing source.
    """

    def __init__(
        self, directory: str, fingerprint: Optional[str] = None
    ) -> None:
        self.directory = directory
        self.fingerprint = (
            fingerprint if fingerprint is not None
            else environment_fingerprint()
        )
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------
    # Keying
    # ------------------------------------------------------------------

    def key_of(self, fn_name: str, params: Dict[str, Any], seed: int) -> str:
        """The content address of one point.  A parameter JSON cannot
        represent raises ``TypeError``: keying it by ``str()`` would
        never hit for a default ``repr`` and would replay the wrong
        result for two objects whose ``str()`` agree."""
        payload = json.dumps(
            {
                "schema": SCHEMA,
                "fn": fn_name,
                "params": params,
                "seed": seed,
                "env": self.fingerprint,
            },
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode()).hexdigest()

    def _path_of(self, key: str) -> str:
        return os.path.join(self.directory, key[:2], key + ".json")

    # ------------------------------------------------------------------
    # Lookup / store
    # ------------------------------------------------------------------

    def get(
        self, fn_name: str, params: Dict[str, Any], seed: int
    ) -> Tuple[bool, Any]:
        """``(hit, value)``; any unreadable/corrupt entry is a miss."""
        key = self.key_of(fn_name, params, seed)
        try:
            with open(self._path_of(key), "r", encoding="utf-8") as fh:
                payload = json.load(fh)
            if payload["key"] != key or payload["schema"] != SCHEMA:
                raise ValueError("stale or foreign cache entry")
            value = payload["value"]
        except (OSError, ValueError, KeyError, TypeError):
            self.misses += 1
            return False, None
        self.hits += 1
        return True, value

    def put(
        self, fn_name: str, params: Dict[str, Any], seed: int, value: Any
    ) -> Any:
        """Store (atomically) and return the canonicalized value."""
        key = self.key_of(fn_name, params, seed)
        path = self._path_of(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        payload = {
            "schema": SCHEMA,
            "key": key,
            "fn": fn_name,
            "value": value,
        }
        text = json.dumps(payload, sort_keys=True)
        fd, tmp = tempfile.mkstemp(
            dir=os.path.dirname(path), suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return canonicalize(value)
