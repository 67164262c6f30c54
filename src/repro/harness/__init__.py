"""Experiment harness: builds the paper's stacks and regenerates every
table and figure of the evaluation (Section 5)."""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.harness.configs import StackConfig, build_stack, STACKS
    from repro.harness import experiments
    from repro.harness.cache import ResultCache
    from repro.harness.report import format_table, series_to_csv
    from repro.harness.sweep import SweepPoint, run_sweep

__all__ = [
    "StackConfig",
    "build_stack",
    "STACKS",
    "experiments",
    "format_table",
    "series_to_csv",
    "ResultCache",
    "SweepPoint",
    "run_sweep",
]

__getattr__, __dir__ = lazy_exports(__name__)
