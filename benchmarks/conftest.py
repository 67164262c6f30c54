"""Benchmark configuration.

Each benchmark regenerates one of the paper's tables or figures, prints the
rows/series the paper reports (simulated time), and asserts the figure's
qualitative shape.  ``pytest-benchmark`` wraps the run so wall-clock cost of
the reproduction itself is also tracked.

Every table, figure, ablation and extension bench runs its experiment
registry record (:mod:`repro.harness.registry`) through
:func:`run_experiment`, at the CLI's quick scale, and prints its tables
as ``python -m repro.harness <name>`` does; ``REPRO_BENCH_FULL=1`` runs
``--full``'s scale instead (slower).  A bench builds no stack and formats
no table: it holds only its shape assertions.

The experiment sweeps honour the harness's parallel/caching engine here
too: ``--sweep-jobs N`` fans each figure's grid points across ``N``
worker processes (env fallback ``REPRO_BENCH_JOBS``), ``--sweep-cache
DIR`` memoizes point results content-addressed on code+params,
``--sweep-no-cache`` forces recomputation, and ``--sweep-cache-stats``
prints hit/miss totals at the end of the session.
"""

import functools
import os

import pytest

from repro.harness import sweep
from repro.harness.cache import ResultCache
from repro.harness.registry import EXPERIMENTS


def run_once(benchmark, fn):
    """Run a heavy experiment exactly once under pytest-benchmark."""
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)


def run_experiment(benchmark, name):
    """Run the registry's experiment ``name`` once at the bench scale
    (``REPRO_BENCH_FULL=1``: ``--full``'s), print its tables, and return
    its result."""
    experiment = EXPERIMENTS[name]
    full = os.environ.get("REPRO_BENCH_FULL", "") == "1"
    result = run_once(benchmark, functools.partial(experiment.fn, **experiment.kwargs(full)))
    print()
    experiment.render(result)
    return result


def pytest_addoption(parser):
    group = parser.getgroup("sweep", "experiment sweep execution")
    group.addoption(
        "--sweep-jobs", type=int, metavar="N",
        default=int(os.environ.get("REPRO_BENCH_JOBS", "1")),
        help="worker processes per experiment sweep (default: 1)",
    )
    group.addoption(
        "--sweep-cache", metavar="DIR", default=None,
        help="content-addressed result cache directory (default: off)",
    )
    group.addoption(
        "--sweep-no-cache", action="store_true",
        help="bypass the sweep result cache even if --sweep-cache is set",
    )
    group.addoption(
        "--sweep-cache-stats", action="store_true",
        help="print sweep cache/executor statistics after the session",
    )


@pytest.fixture(scope="session", autouse=True)
def _sweep_defaults(request):
    jobs = max(1, request.config.getoption("--sweep-jobs"))
    cache_dir = request.config.getoption("--sweep-cache")
    cache = (
        ResultCache(cache_dir)
        if cache_dir and not request.config.getoption("--sweep-no-cache")
        else None
    )
    sweep.reset_stats()
    with sweep.configured(jobs=jobs, cache=cache):
        yield
    if request.config.getoption("--sweep-cache-stats"):
        stats = sweep.reset_stats()
        print(f"\n[sweep] {stats.summary()}")
