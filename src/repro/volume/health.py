"""Per-shard fail-slow detection for the sharded volume.

A shard that *crashes* announces itself with an exception; a shard that
goes *fail-slow* does not -- every operation still completes, just an
order of magnitude late, which is the harder partial failure to handle
(the "limping" disks of the fail-slow literature).  The
:class:`ShardHealthMonitor` watches per-operation latencies and trips
when the p99 over a sliding window exceeds a multiple of a frozen
baseline p99, with hysteresis so the verdict does not flap at the
window's edge.  Once tripped, the volume hedges reads against the shard:
:meth:`hedge_delay` is the simulated-time bound after which a duplicate
request would have been served by a healthy sibling.
"""

from __future__ import annotations

from collections import deque
from typing import Collection, Deque, Dict, List, Optional


def _percentile(samples: Collection[float], fraction: float) -> float:
    """Nearest-rank percentile of a non-empty sample collection; the last
    rank (a p99's over at most 100 samples) is the maximum, unsorted."""
    count = len(samples)
    rank = min(count - 1, int(fraction * count))
    return max(samples) if rank == count - 1 else sorted(samples)[rank]


def median_baseline(monitors) -> Optional[float]:
    """The median of the frozen baselines across ``monitors`` (ignoring
    those still learning); ``None`` with fewer than two frozen baselines
    -- a single sibling cannot arbitrate who is the slow one."""
    frozen = sorted(
        m.baseline_p99 for m in monitors if m.baseline_p99 is not None
    )
    if len(frozen) < 2:
        return None
    mid = len(frozen) // 2
    if len(frozen) % 2:
        return frozen[mid]
    return (frozen[mid - 1] + frozen[mid]) / 2.0


class ShardHealthMonitor:
    """A p99-over-window latency tripwire for one shard.

    Args:
        window: Number of recent operations the rolling p99 covers.
        baseline_samples: Operations observed before the baseline p99 is
            frozen.  Until then the monitor never trips (it is still
            learning what "normal" looks like for this shard).
        min_samples: Rolling-window samples required before the trip
            comparison is meaningful.
    """

    #: Rolling p99 >= ``trip_factor`` x baseline p99 trips the monitor.
    trip_factor = 4.0
    #: Once tripped, the rolling p99 must fall back below
    #: ``clear_factor`` x baseline p99 to clear (hysteresis).
    clear_factor = 2.0
    #: :meth:`hedge_delay` returns ``hedge_factor`` x baseline p99 -- the
    #: surplus a hedged read tolerates before the duplicate wins.
    hedge_factor = 2.0

    def __init__(
        self,
        window: int = 64,
        baseline_samples: int = 32,
        min_samples: int = 8,
    ) -> None:
        if window <= 0 or baseline_samples <= 0 or min_samples <= 0:
            raise ValueError("window sizes must be positive")
        self.window = window
        self.baseline_samples = baseline_samples
        self.min_samples = min_samples
        self.reset()

    def reset(self) -> None:
        """Forget everything (a recovered shard re-learns its baseline)."""
        self._recent: Deque[float] = deque(maxlen=self.window)
        self._baseline_pool: List[float] = []
        self._baseline_p99: Optional[float] = None
        self._tripped = False
        self._calibrated = False
        self.samples = 0
        self.trips = 0

    def note(self, seconds: float) -> None:
        """Record one completed operation's latency and re-evaluate."""
        self.samples += 1
        if self._baseline_p99 is None:
            self._baseline_pool.append(seconds)
            if len(self._baseline_pool) >= self.baseline_samples:
                self._baseline_p99 = max(
                    _percentile(self._baseline_pool, 0.99), 1e-12
                )
                self._baseline_pool = []
            return
        self._recent.append(seconds)
        if len(self._recent) < self.min_samples:
            return
        p99 = _percentile(self._recent, 0.99)
        if not self._tripped:
            if p99 >= self.trip_factor * self._baseline_p99:
                self._tripped = True
                self.trips += 1
        elif p99 < self.clear_factor * self._baseline_p99:
            self._tripped = False

    def calibrate(self, reference_p99: float) -> bool:
        """Cross-check the frozen baseline against a *reference* p99
        (typically the median of the sibling shards' baselines).

        The baseline freezes over whatever samples arrive first, so a
        shard that is fail-slow from op 0 teaches the monitor that slow
        is normal: the inflated baseline means the ``trip_factor`` x
        comparison can never fire.  No amount of local data fixes that
        -- every sample the monitor ever saw was degraded -- so the
        volume lends it the siblings' notion of normal.  One-sided and
        one-shot: only a baseline at least ``trip_factor`` x the
        reference is treated as learned-while-degraded; it is replaced
        by the reference and the monitor trips immediately (the shard
        *is* slow by its siblings' normal).  A sane baseline is left
        untouched either way.  Returns ``True`` when recalibration
        happened.
        """
        self._calibrated = True
        if self._baseline_p99 is None or reference_p99 <= 0.0:
            return False
        if self._baseline_p99 < self.trip_factor * reference_p99:
            return False
        self._baseline_p99 = max(reference_p99, 1e-12)
        if not self._tripped:
            self._tripped = True
            self.trips += 1
        return True

    @property
    def calibrated(self) -> bool:
        """Whether the baseline has been cross-checked against siblings."""
        return self._calibrated

    @property
    def tripped(self) -> bool:
        """Whether the shard currently looks fail-slow."""
        return self._tripped

    @property
    def baseline_p99(self) -> Optional[float]:
        """The frozen baseline p99, or ``None`` while still learning."""
        return self._baseline_p99

    def rolling_p99(self) -> Optional[float]:
        """The p99 over the current window, or ``None`` when too few
        samples have arrived since the baseline froze."""
        if len(self._recent) < self.min_samples:
            return None
        return _percentile(self._recent, 0.99)

    def hedge_delay(self) -> Optional[float]:
        """Seconds of fail-slow surplus a hedged read tolerates before
        the duplicate request wins; ``None`` before the baseline froze
        (nothing to hedge against yet)."""
        if self._baseline_p99 is None:
            return None
        return self.hedge_factor * self._baseline_p99

    def stats(self) -> Dict[str, object]:
        return {
            "samples": self.samples,
            "tripped": self._tripped,
            "trips": self.trips,
            "baseline_p99": self._baseline_p99,
            "rolling_p99": self.rolling_p99(),
        }

    def __repr__(self) -> str:  # pragma: no cover - repr convenience
        return (
            f"ShardHealthMonitor(samples={self.samples}, "
            f"tripped={self._tripped})"
        )
