"""Analytical models of eager-writing latency (Section 2, Appendix A).

Three models, in increasing sophistication:

* :mod:`repro.models.single_track` -- expected rotational slots skipped to
  find a free sector on one track (formulas 1/6, 8, and the block-size
  extension 9).
* :mod:`repro.models.cylinder` -- the single-cylinder model (formulas 2-4)
  comparing the current track against the other tracks of the cylinder.
* :mod:`repro.models.compactor` -- the model assuming a free-space
  compactor (formulas 5, 10-13): fill empty tracks to a threshold, switch,
  and let idle-time compaction regenerate empty tracks.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.models.single_track import (
        expected_skip_sectors,
        expected_skip_recurrence,
        expected_block_locate_sectors,
    )
    from repro.models.cylinder import (
        cylinder_expected_skip_sectors,
        cylinder_expected_latency,
        single_track_latency,
    )
    from repro.models.compactor import (
        total_skip_exact,
        nonrandomness_correction,
        average_latency_exact,
        average_latency_closed_form,
        optimal_threshold,
    )

__all__ = [
    "expected_skip_sectors",
    "expected_skip_recurrence",
    "expected_block_locate_sectors",
    "cylinder_expected_skip_sectors",
    "cylinder_expected_latency",
    "single_track_latency",
    "total_skip_exact",
    "nonrandomness_correction",
    "average_latency_exact",
    "average_latency_closed_form",
    "optimal_threshold",
]

__getattr__, __dir__ = lazy_exports(__name__)
