"""The model assuming a compactor (Section 2.3, Appendix A.2).

With an idle-time compactor regenerating empty tracks, the allocator can
fill an empty track until only ``m`` of its ``n`` sectors remain free, then
switch tracks.  Between switches, writes follow the single-track model with
a shrinking number of free sectors, so the total slots skipped per track
fill is::

    sum_{i=m+1}^{n} (n - i) / (1 + i)                            (10)

Charging one track switch (cost ``s``) per ``n - m`` writes gives the
average latency (11), and approximating the sum by an integral plus an
empirical correction ``epsilon(n, m)`` (12) for the *non-randomness* of the
free-space distribution yields the closed form::

    ( s + r * [ (n+1) ln((n+2)/(m+2)) - (n-m) + eps(n,m) ] ) / (n-m)   (13)

where ``r`` is the rotational delay per sector.  The model exhibits the
U-shape of Figure 2: switching too often pays too many switch costs,
switching too rarely crowds the track.
"""

from __future__ import annotations

import math
from typing import Tuple

from repro.disk.specs import DiskSpec


def total_skip_exact(n: int, m: int) -> float:
    """Formula (10): exact total slots skipped filling a track from empty
    down to ``m`` free sectors."""
    _validate(n, m)
    return sum((n - i) / (1.0 + i) for i in range(m + 1, n + 1))


def nonrandomness_correction(n: int, m: int) -> float:
    """Formula (12): the empirical correction ``epsilon(n, m)``.

    Accounts for free space *not* being randomly distributed when a track is
    filled to a threshold (a free sector right after used ones is likelier
    to be picked than one after free ones).  The paper found this form to
    work well across a wide range of disk parameters.
    """
    _validate(n, m)
    rho = 1.0 + n / 36.0
    numerator = max(n - m - 0.5, 0.0) ** (rho + 2.0)
    denominator = (8.0 - n / 96.0) * (rho + 2.0) * n**rho
    if denominator <= 0.0:
        raise ValueError(
            f"correction undefined for n={n}: denominator non-positive "
            "(the empirical form was fit for n < 768)"
        )
    return numerator / denominator


def average_latency_exact(
    n: int, m: int, switch_time: float, sector_time: float, corrected: bool = True
) -> float:
    """Formula (11) (+ optional (12) correction): average seconds per write."""
    _validate(n, m)
    if n == m:
        raise ValueError("threshold m must leave at least one writable sector")
    skips = total_skip_exact(n, m)
    if corrected:
        skips += nonrandomness_correction(n, m)
    return (switch_time + sector_time * skips) / (n - m)


def average_latency_closed_form(
    n: int, m: int, switch_time: float, sector_time: float, corrected: bool = True
) -> float:
    """Formula (13): the paper's closed-form average latency in seconds."""
    _validate(n, m)
    if n == m:
        raise ValueError("threshold m must leave at least one writable sector")
    skips = (n + 1.0) * math.log((n + 2.0) / (m + 2.0)) - (n - m)
    if corrected:
        skips += nonrandomness_correction(n, m)
    return (switch_time + sector_time * skips) / (n - m)


def optimal_threshold(
    spec: DiskSpec, switch_time: float = 0.0
) -> Tuple[int, float]:
    """Minimise (13) over the switch threshold ``m`` for a drive.

    Args:
        spec: The disk whose ``n`` and rotational speed to use.
        switch_time: Track-switch cost; defaults to the drive's head-switch
            time when 0.0 is passed.

    Returns:
        ``(m, latency_seconds)`` at the optimum.  This is the "judicious
        selection of an optimal threshold" Section 2.3 describes.  It is
        not the VLD's 75 % fill (``fill_threshold=0.75``, m = n/4): the
        model's optimum is m = 45 of 72 (0.62) on the HP97560, at
        0.147 ms, and m = 174 of 256 (0.68) on the ST19101, at 0.011 ms,
        where m = n/4 gives 0.331 ms and 0.030 ms, 2.25x and 2.8x the
        optimum.  Formula (13) prices only the locate of an eager write,
        not the compaction a lower fill costs, so it does not choose the
        VLD's default.
    """
    n = spec.sectors_per_track
    s = switch_time if switch_time > 0.0 else spec.head_switch_time
    r = spec.sector_time
    best_m, best_latency = 1, float("inf")
    for m in range(1, n):
        latency = average_latency_closed_form(n, m, s, r)
        if latency < best_latency:
            best_m, best_latency = m, latency
    return best_m, best_latency


def _validate(n: int, m: int) -> None:
    if n <= 0:
        raise ValueError("n must be positive")
    if not 0 <= m <= n:
        raise ValueError("m must satisfy 0 <= m <= n")
