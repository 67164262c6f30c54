"""Benchmark workloads matching the paper's Section 5 micro-benchmarks."""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.workloads.smallfile import SmallFileResult, run_small_file
    from repro.workloads.largefile import LargeFileResult, run_large_file
    from repro.workloads.random_update import (
        prepare_file,
        run_random_updates,
    )
    from repro.workloads.bursts import run_bursts

__all__ = [
    "SmallFileResult",
    "run_small_file",
    "LargeFileResult",
    "run_large_file",
    "prepare_file",
    "run_random_updates",
    "run_bursts",
]

__getattr__, __dir__ = lazy_exports(__name__)
