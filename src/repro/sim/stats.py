"""Latency accounting with the paper's four-way breakdown.

Figure 9 of the paper decomposes per-write latency into:

* ``scsi``      -- SCSI command processing overhead inside the drive,
* ``transfer``  -- time moving bits to/from the media once positioned,
* ``locate``    -- seek + rotational delay + head-switch time,
* ``other``     -- host processing (system call, file system code, driver).

:class:`Breakdown` is one operation's decomposition; :class:`LatencyRecorder`
aggregates many operations and can reproduce both the average-latency numbers
(Figures 8, 10, 11) and the percentage breakdown bars (Figure 9).
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence

#: Component names, in the order the paper stacks them in Figure 9.
COMPONENTS = ("scsi", "transfer", "locate", "other")


def nearest_rank(ordered: Sequence[float], fraction: float) -> float:
    """The nearest-rank ``fraction`` quantile of a non-empty ascending
    sequence: the ``ceil(fraction * n)``-th smallest value, the smallest
    for a fraction of 0."""
    rank = min(len(ordered), max(1, math.ceil(fraction * len(ordered))))
    return ordered[rank - 1]


class Breakdown:
    """Per-operation latency decomposition (seconds per component)."""

    __slots__ = ("scsi", "transfer", "locate", "other")

    def __init__(
        self,
        scsi: float = 0.0,
        transfer: float = 0.0,
        locate: float = 0.0,
        other: float = 0.0,
    ) -> None:
        self.scsi = scsi
        self.transfer = transfer
        self.locate = locate
        self.other = other

    @property
    def total(self) -> float:
        return self.scsi + self.transfer + self.locate + self.other

    def add(self, other: "Breakdown") -> "Breakdown":
        """Accumulate another breakdown into this one (in place)."""
        self.scsi += other.scsi
        self.transfer += other.transfer
        self.locate += other.locate
        self.other += other.other
        return self

    def charge(self, component: str, seconds: float) -> None:
        """Add ``seconds`` to one named component."""
        if component not in COMPONENTS:
            raise KeyError(f"unknown latency component {component!r}")
        if not seconds >= 0.0:
            raise ValueError("latency charges must be non-negative")
        setattr(self, component, getattr(self, component) + seconds)

    def as_dict(self) -> Dict[str, float]:
        return {name: getattr(self, name) for name in COMPONENTS}

    def copy(self) -> "Breakdown":
        return Breakdown(self.scsi, self.transfer, self.locate, self.other)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Breakdown):
            return NotImplemented
        return all(
            getattr(self, name) == getattr(other, name)
            for name in COMPONENTS
        )

    # Breakdowns are mutable accumulators; keep them unhashable so they
    # are never silently used as set members or dict keys.
    __hash__ = None  # type: ignore[assignment]

    def isclose(self, other: "Breakdown", rel_tol: float = 1e-9,
                abs_tol: float = 1e-12) -> bool:
        """Component-wise :func:`math.isclose` (for accumulated sums whose
        float addition order may differ)."""
        return all(
            math.isclose(
                getattr(self, name), getattr(other, name),
                rel_tol=rel_tol, abs_tol=abs_tol,
            )
            for name in COMPONENTS
        )

    def __repr__(self) -> str:
        parts = ", ".join(f"{k}={getattr(self, k) * 1e3:.3f}ms" for k in COMPONENTS)
        return f"Breakdown({parts})"


class LatencyRecorder:
    """Aggregates operation latencies and their component breakdowns."""

    def __init__(self) -> None:
        self._totals: List[float] = []
        self._sum = Breakdown()

    def record(self, breakdown: Breakdown) -> None:
        self._totals.append(breakdown.total)
        self._sum.add(breakdown)

    def record_parts(self, **parts: float) -> None:
        """Convenience: record a breakdown given as keyword components."""
        self.record(Breakdown(**parts))

    @property
    def count(self) -> int:
        return len(self._totals)

    @property
    def total_time(self) -> float:
        return self._sum.total

    def mean(self) -> float:
        """Mean per-operation latency in seconds (0.0 when empty)."""
        if not self._totals:
            return 0.0
        return self._sum.total / len(self._totals)

    def percentile(self, fraction: float) -> float:
        """Latency at ``fraction`` in [0, 1] (nearest-rank)."""
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("percentile fraction must lie in [0, 1]")
        if not self._totals:
            return 0.0
        return nearest_rank(sorted(self._totals), fraction)

    def component_totals(self) -> Dict[str, float]:
        """Total seconds spent in each component."""
        return self._sum.as_dict()

    def component_fractions(self) -> Dict[str, float]:
        """Each component as a fraction of total latency (Figure 9 bars)."""
        total = self._sum.total
        if total <= 0.0:
            return {name: 0.0 for name in COMPONENTS}
        return {name: getattr(self._sum, name) / total for name in COMPONENTS}

    def merge(self, others: Iterable["LatencyRecorder"]) -> "LatencyRecorder":
        """Fold other recorders' samples into this one (in place)."""
        for other in others:
            self._totals.extend(other._totals)
            self._sum.add(other._sum)
        return self

    def reset(self) -> None:
        self._totals.clear()
        self._sum = Breakdown()

    def summary(self, label: Optional[str] = None) -> str:
        """One-line human-readable summary, latencies in milliseconds."""
        prefix = f"{label}: " if label else ""
        fractions = self.component_fractions()
        parts = " ".join(f"{k}={v * 100:.0f}%" for k, v in fractions.items())
        return (
            f"{prefix}n={self.count} mean={self.mean() * 1e3:.3f}ms "
            f"p95={self.percentile(0.95) * 1e3:.3f}ms [{parts}]"
        )
