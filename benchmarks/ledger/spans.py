"""Spans recorded from outside the program under test.

The ledger measures each layer by timing calls into the layer's public
methods: :class:`Tracer` replaces those methods *on the classes* with
recording wrappers before the stack is built and restores them
afterwards, so nothing under ``src/`` knows it is being traced.  Each
span is ``(name, parent, start, end)`` on the host's ``perf_counter``;
spans stay in memory until the pass ends and are then folded into
per-name totals.  A span's *self time* is its duration minus the
durations of its direct children, so the self times of a pass never sum
to more than its wall time.

A call that re-enters the span it is already inside (``write_block``
delegating to ``write_blocks``) crosses no layer boundary and records
nothing.
"""

from __future__ import annotations

import functools
import importlib
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

#: span name -> (module, class, methods): the layer map.  README.md
#: prints this table; ``metrics.py`` turns the span names into the
#: per-layer metric names.  Four more spans wrap module functions
#: and the benchmark's own loop (nothing to patch on a class), through
#: :meth:`Tracer.wrap`: ``harness.build_stack``, ``hosts.multihost``,
#: ``host.op`` (one per driver step) and ``host.driver`` (the whole
#: measured phase).
LAYER_MAP: Tuple[Tuple[str, str, str, Tuple[str, ...]], ...] = (
    ("disk.write", "repro.disk.disk", "Disk", ("write", "write_run")),
    ("disk.read", "repro.disk.disk", "Disk", ("read",)),
    (
        "disk.freemap.query",
        "repro.disk.freemap",
        "FreeSpaceMap",
        (
            "nearest_free_run",
            "nearest_free_in_cylinder",
            "cylinder_has_run",
            "has_aligned_run",
            "find_empty_track",
            "next_used_on_track",
            "partial_tracks",
            "tracks_by_free_count",
        ),
    ),
    (
        "blockdev.regular",
        "repro.blockdev.regular",
        "RegularDisk",
        (
            "read_block",
            "read_blocks",
            "write_block",
            "write_blocks",
            "write_partial",
            "idle",
        ),
    ),
    (
        "vlog.vld.write",
        "repro.vlog.vld",
        "VirtualLogDisk",
        ("write_block", "write_blocks", "write_partial", "trim"),
    ),
    (
        "vlog.vld.read",
        "repro.vlog.vld",
        "VirtualLogDisk",
        ("read_block", "read_blocks"),
    ),
    ("vlog.vld.idle", "repro.vlog.vld", "VirtualLogDisk", ("idle",)),
    (
        "vlog.vld.crash",
        "repro.vlog.vld",
        "VirtualLogDisk",
        ("crash", "power_down"),
    ),
    ("vlog.recover", "repro.vlog.vld", "VirtualLogDisk", ("recover",)),
    (
        "vlog.allocator",
        "repro.vlog.allocator",
        "EagerAllocator",
        ("allocate", "allocate_run"),
    ),
    (
        "vlog.allocator.free",
        "repro.vlog.allocator",
        "EagerAllocator",
        ("free_block", "free_blocks"),
    ),
    (
        "vlog.log.append",
        "repro.vlog.virtual_log",
        "VirtualLog",
        ("append", "relocate"),
    ),
    (
        "vlog.compactor",
        "repro.vlog.compactor",
        "FreeSpaceCompactor",
        ("run_for",),
    ),
    (
        "sched.submit",
        "repro.sched.scheduler",
        "DiskScheduler",
        ("write", "write_run", "read", "submit"),
    ),
    (
        "sched.service",
        "repro.sched.scheduler",
        "DiskScheduler",
        ("service_one",),
    ),
    (
        "sched.barrier",
        "repro.sched.scheduler",
        "DiskScheduler",
        ("drain", "barrier"),
    ),
    ("sched.pick", "repro.sched.policies", "FIFOPolicy", ("pick",)),
    ("sched.pick", "repro.sched.policies", "ElevatorPolicy", ("pick",)),
    ("sched.pick", "repro.sched.policies", "SATFPolicy", ("pick",)),
    ("sim.engine.run", "repro.sim.engine", "EventEngine", ("run",)),
    (
        "volume.write",
        "repro.volume.sharded",
        "ShardedVolume",
        ("write_block", "write_blocks", "write_partial", "trim"),
    ),
    (
        "volume.read",
        "repro.volume.sharded",
        "ShardedVolume",
        ("read_block", "read_blocks"),
    ),
    ("volume.idle", "repro.volume.sharded", "ShardedVolume", ("idle",)),
    (
        "nvm.wal.write",
        "repro.nvm.wal",
        "NVWal",
        ("write_block", "write_blocks", "write_partial", "trim"),
    ),
    ("nvm.wal.read", "repro.nvm.wal", "NVWal", ("read_block", "read_blocks")),
    # The one private method on the map: idle(), destage_all() and the
    # full-log backpressure inside write_blocks() all funnel through it,
    # and the last of those has no public entry of its own.
    ("nvm.wal.destage", "repro.nvm.wal", "NVWal", ("_destage",)),
    ("nvm.wal.idle", "repro.nvm.wal", "NVWal", ("idle",)),
    ("nvm.wal.crash", "repro.nvm.wal", "NVWal", ("crash", "power_down")),
    ("nvm.recover", "repro.nvm.wal", "NVWal", ("recover",)),
    (
        "ufs",
        "repro.ufs.ufs",
        "UFS",
        (
            "create",
            "unlink",
            "write",
            "read",
            "fsync",
            "sync",
            "drop_caches",
            "idle",
        ),
    ),
    (
        "lfs",
        "repro.lfs.lfs",
        "LFS",
        (
            "create",
            "unlink",
            "write",
            "read",
            "fsync",
            "sync",
            "drop_caches",
            "idle",
        ),
    ),
)


class Tracer:
    """Records spans in memory; patches and restores class methods."""

    def __init__(self) -> None:
        self.names: List[str] = []
        #: ``(name id, parent span index or -1, start, end)``; a slot is
        #: ``None`` while its span is still open.
        self.spans: List[Optional[Tuple[int, int, float, float]]] = []
        self._open: List[int] = [-1]
        self._open_names: List[int] = [-1]
        self._patched: List[Tuple[type, str, Callable]] = []

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` with a span called ``name`` around every call."""
        nid = self._name_id(name)
        spans = self.spans
        open_spans = self._open
        open_names = self._open_names

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if open_names[-1] == nid:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = open_spans[-1]
            open_spans.append(index)
            open_names.append(nid)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                open_spans.pop()
                open_names.pop()
                spans[index] = (nid, parent, start, end)

        return wrapper

    def install(self) -> None:
        """Patch every method on :data:`LAYER_MAP`.  Call before the
        stack is built; pair with :meth:`restore` in a ``finally``."""
        for name, module, cls_name, methods in LAYER_MAP:
            cls = getattr(importlib.import_module(module), cls_name)
            for method in methods:
                original = cls.__dict__[method]
                self._patched.append((cls, method, original))
                setattr(cls, method, self.wrap(name, original))

    def restore(self) -> None:
        while self._patched:
            cls, method, original = self._patched.pop()
            setattr(cls, method, original)

    def aggregate(
        self, lo: float = float("-inf"), hi: float = float("inf")
    ) -> Dict[str, Dict[str, float]]:
        """Per-name ``calls``, ``total_s`` (inclusive) and ``self_s`` over
        the closed spans that started in ``[lo, hi)``."""
        spans = self.spans
        child_seconds = [0.0] * len(spans)
        for span in spans:
            if span is not None and span[1] >= 0:
                child_seconds[span[1]] += span[3] - span[2]
        out: Dict[str, Dict[str, float]] = {}
        for index, span in enumerate(spans):
            if span is None or not lo <= span[2] < hi:
                continue
            row = out.setdefault(
                self.names[span[0]],
                {"calls": 0, "total_s": 0.0, "self_s": 0.0},
            )
            duration = span[3] - span[2]
            row["calls"] += 1
            row["total_s"] += duration
            row["self_s"] += duration - child_seconds[index]
        return out

    def durations(self, name: str) -> List[float]:
        """Durations of every closed span called ``name``, in order."""
        if name not in self.names:
            return []
        nid = self.names.index(name)
        return [
            span[3] - span[2]
            for span in self.spans
            if span is not None and span[0] == nid
        ]
