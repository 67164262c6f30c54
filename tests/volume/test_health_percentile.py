"""The health monitor's p99 without a sort per call.

``ShardHealthMonitor.note`` takes a nearest-rank p99 of its window on
every volume call.  For a window of at most 100 samples that rank is the
last one, so the answer is the window's maximum; larger windows still
sort.  The reference is the sort-every-time percentile it replaced.
"""

from __future__ import annotations

import random
from collections import deque

import pytest

from repro.volume.health import ShardHealthMonitor, _percentile


def _reference_percentile(samples, fraction):
    ordered = sorted(samples)
    rank = min(len(ordered) - 1, int(fraction * len(ordered)))
    return ordered[rank]


@pytest.mark.parametrize("fraction", [0.5, 0.99])
def test_matches_the_sorted_percentile_for_windows_1_to_200(fraction):
    rng = random.Random(11)
    for size in range(1, 201):
        for ties in (False, True):
            samples = [
                rng.choice((1e-3, 2e-3, 5e-3)) if ties else rng.random()
                for _ in range(size)
            ]
            want = _reference_percentile(samples, fraction)
            assert _percentile(samples, fraction) == want, size
            assert _percentile(deque(samples), fraction) == want, size


@pytest.mark.parametrize("window", [1, 8, 64, 100, 101, 200])
def test_monitor_trips_as_with_the_sorted_percentile(window):
    """A whole monitor over a slow phase and back: the same trips and the
    same rolling p99 after every sample as the sorted computation."""
    rng = random.Random(window)
    monitor = ShardHealthMonitor(
        window=window, baseline_samples=16, min_samples=1
    )
    recent = deque(maxlen=window)
    for i in range(600):
        slow = 200 <= i < 350
        seconds = rng.uniform(1e-3, 2e-3) * (10.0 if slow else 1.0)
        monitor.note(seconds)
        if monitor.baseline_p99 is None or i < 16:
            continue
        recent.append(seconds)
        assert monitor.rolling_p99() == _reference_percentile(recent, 0.99)
    assert monitor.trips >= 1
