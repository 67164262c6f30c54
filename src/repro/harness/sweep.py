"""Parallel sweep execution for the experiment harness.

Every table/figure of the paper's evaluation is an embarrassingly
parallel grid: independent (stack, workload-size) or (burst, idle)
points whose results are reassembled into curves.  Experiments declare
those grids as lists of :class:`SweepPoint` -- a *pure, picklable* spec
naming a module-level point function, its JSON-canonicalizable
parameters, and an explicit seed -- and :func:`run_sweep` executes them:

* **in parallel** across a ``concurrent.futures.ProcessPoolExecutor``
  (``fork`` start method, so the workers share the already-imported
  simulator) when ``jobs > 1`` -- points are *batched* into a few
  chunks per worker (round-robin, so curves with cost gradients stay
  balanced) because a typical point computes for well under the
  per-task fork/IPC overhead; one task per point made ``jobs=4``
  *slower* than serial,
* **inline** when ``jobs == 1``, only one point misses the cache, or
  the platform lacks ``fork``,
* **not at all** for points whose result is already in the
  content-addressed :class:`~repro.harness.cache.ResultCache`.

Results come back in point order regardless of completion order, each
carrying its compute time and whether it was a cache hit.  Values are
canonicalized through a JSON round-trip on every path, so ``jobs=1``,
``jobs=N``, and warm-cache runs return *exactly* equal structures.

Determinism contract: a point function must derive all randomness from
its ``seed`` keyword and its parameters -- never from process-global
state -- so that the same :class:`SweepPoint` yields the same value in
any process.  The test suite pins this by comparing ``jobs=4`` against
``jobs=1`` for every experiment.

How a sweep executes (worker count, which cache) is not part of what it
computes, so it is not a parameter of the experiments: the
:func:`configured` context manager is the one execution context, entered
by the CLI around a run and by tests around a comparison, and
:func:`run_sweep` reads it when ``jobs``/``cache`` are not passed.
"""

from __future__ import annotations

import importlib
import multiprocessing
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.harness.cache import ResultCache, canonicalize


class DroppedPointWarning(UserWarning):
    """A sweep point produced no result (e.g. the workload ran out of
    space) and was dropped from its curve."""


def warn_dropped(experiment: str, **detail: Any) -> None:
    """Surface a dropped point so truncated curves are visible."""
    info = ", ".join(f"{k}={v!r}" for k, v in sorted(detail.items()))
    warnings.warn(
        f"{experiment}: dropped point ({info})",
        DroppedPointWarning,
        stacklevel=3,
    )


@dataclass(frozen=True)
class SweepPoint:
    """One independent grid point.

    ``fn_name`` is ``"package.module:function"``; the function must be
    module-level (picklable by reference) and accept ``seed`` plus the
    ``params`` keys as keyword arguments, returning a JSON-serializable
    value.  ``params`` values must themselves be JSON-canonicalizable
    (they feed the cache key).
    """

    fn_name: str
    params: Dict[str, Any]
    seed: int = 0


@dataclass
class SweepResult:
    """One point's outcome, in point order."""

    point: SweepPoint
    value: Any
    seconds: float  # compute time (0.0 for cache hits)
    cached: bool


@dataclass
class SweepStats:
    """Counters accumulated across :func:`run_sweep` calls."""

    points: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    submissions: int = 0  # points handed to the process pool
    pool_tasks: int = 0  # chunks actually submitted (several points each)
    inline_runs: int = 0  # points executed in this process
    compute_seconds: float = 0.0  # summed per-point compute time
    wall_seconds: float = 0.0

    def add(self, other: "SweepStats") -> None:
        self.points += other.points
        self.cache_hits += other.cache_hits
        self.cache_misses += other.cache_misses
        self.submissions += other.submissions
        self.pool_tasks += other.pool_tasks
        self.inline_runs += other.inline_runs
        self.compute_seconds += other.compute_seconds
        self.wall_seconds += other.wall_seconds

    def summary(self) -> str:
        return (
            f"{self.points} points: {self.cache_hits} cached, "
            f"{self.submissions} parallel (in {self.pool_tasks} tasks), "
            f"{self.inline_runs} inline; "
            f"compute {self.compute_seconds:.1f}s in "
            f"{self.wall_seconds:.1f}s wall"
        )


#: Running totals since the last :func:`reset_stats` (the CLI's
#: ``--cache-stats`` report).
STATS = SweepStats()

_DEFAULT_JOBS = 1
_DEFAULT_CACHE: Optional[ResultCache] = None
_UNSET = object()


@contextmanager
def configured(jobs: Optional[int] = None, cache: Any = _UNSET):
    """The execution context: inside the ``with`` block every
    :func:`run_sweep` call that does not say otherwise uses these
    ``jobs`` and this ``cache`` (``None`` = no cache)."""
    global _DEFAULT_JOBS, _DEFAULT_CACHE
    if jobs is not None and jobs < 1:
        raise ValueError("jobs must be >= 1")
    saved = (_DEFAULT_JOBS, _DEFAULT_CACHE)
    try:
        if jobs is not None:
            _DEFAULT_JOBS = jobs
        if cache is not _UNSET:
            _DEFAULT_CACHE = cache
        yield
    finally:
        _DEFAULT_JOBS, _DEFAULT_CACHE = saved


def reset_stats() -> SweepStats:
    """Return the accumulated stats and start a fresh tally."""
    global STATS
    drained = STATS
    STATS = SweepStats()
    return drained


def fork_available() -> bool:
    """Whether the parallel path can run at all on this platform."""
    try:
        return "fork" in multiprocessing.get_all_start_methods()
    except Exception:  # pragma: no cover - defensive
        return False


def resolve_point_fn(fn_name: str) -> Callable[..., Any]:
    module_name, sep, attr = fn_name.partition(":")
    if not sep or not attr:
        raise ValueError(
            f"fn_name must look like 'pkg.module:function', got {fn_name!r}"
        )
    return getattr(importlib.import_module(module_name), attr)


def _execute_point(point: SweepPoint):
    """Worker body: run one point, timing it.  Top-level so the fork
    workers can unpickle it by reference."""
    start = time.perf_counter()
    value = resolve_point_fn(point.fn_name)(seed=point.seed, **point.params)
    return value, time.perf_counter() - start


def _execute_chunk(chunk: List[SweepPoint]):
    """Worker body for a batch of points: one task's fork/IPC overhead
    amortizes across the whole chunk."""
    return [_execute_point(point) for point in chunk]


def run_sweep(
    points: Sequence[SweepPoint],
    jobs: Optional[int] = None,
    cache: Any = _UNSET,
) -> List[SweepResult]:
    """Execute a grid of points; results come back in point order.

    ``jobs``/``cache`` default to the enclosing :func:`configured`
    context (one inline worker, no cache outside any).  Cache hits
    are never submitted to the executor; if at most one point misses,
    the sweep runs inline (a pool would cost more than it saves).
    """
    jobs = _DEFAULT_JOBS if jobs is None else jobs
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    use_cache: Optional[ResultCache] = (
        _DEFAULT_CACHE if cache is _UNSET else cache
    )
    stats = SweepStats(points=len(points))
    wall_start = time.perf_counter()

    results: List[Optional[SweepResult]] = [None] * len(points)
    pending: List[int] = []
    for index, point in enumerate(points):
        if use_cache is not None:
            hit, value = use_cache.get(
                point.fn_name, point.params, point.seed
            )
            if hit:
                results[index] = SweepResult(point, value, 0.0, True)
                stats.cache_hits += 1
                continue
            stats.cache_misses += 1
        pending.append(index)

    def finish(index: int, value: Any, seconds: float) -> None:
        point = points[index]
        if use_cache is not None:
            value = use_cache.put(
                point.fn_name, point.params, point.seed, value
            )
        else:
            value = canonicalize(value)
        results[index] = SweepResult(point, value, seconds, False)
        stats.compute_seconds += seconds

    parallel = jobs > 1 and len(pending) > 1 and fork_available()
    if parallel:
        context = multiprocessing.get_context("fork")
        workers = min(jobs, len(pending))
        # Coarsen the work units: several grid points per submitted task.
        # Two chunks per worker amortizes the per-task overhead while
        # leaving enough slack to absorb uneven point costs; round-robin
        # assignment keeps chunks balanced when cost trends along the
        # grid (deeper queues, larger files).
        chunk_count = min(len(pending), workers * 2)
        chunks = [pending[offset::chunk_count] for offset in range(chunk_count)]
        with ProcessPoolExecutor(
            max_workers=workers, mp_context=context
        ) as pool:
            futures = [
                (
                    chunk,
                    pool.submit(
                        _execute_chunk, [points[index] for index in chunk]
                    ),
                )
                for chunk in chunks
            ]
            stats.submissions += len(pending)
            stats.pool_tasks += len(futures)
            for chunk, future in futures:
                for index, (value, seconds) in zip(chunk, future.result()):
                    finish(index, value, seconds)
    else:
        for index in pending:
            value, seconds = _execute_point(points[index])
            stats.inline_runs += 1
            finish(index, value, seconds)

    stats.wall_seconds = time.perf_counter() - wall_start
    STATS.add(stats)
    assert all(result is not None for result in results)
    return results  # type: ignore[return-value]


def sweep_values(
    points: Sequence[SweepPoint],
    jobs: Optional[int] = None,
    cache: Any = _UNSET,
) -> List[Any]:
    """:func:`run_sweep`, keeping only the values (the common case)."""
    return [r.value for r in run_sweep(points, jobs=jobs, cache=cache)]
