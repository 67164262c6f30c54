"""Ablation: the track-buffer read-ahead fix of Section 4.2.

"The Dartmouth simulator tends to purge data prematurely from its
read-ahead buffer under VLD.  The solution is to aggressively prefetch the
entire track ... and not discard data until it is delivered."  This bench
quantifies that fix: sequential reads through a VLD with the stock
Dartmouth policy versus the full-track policy.
"""

from .conftest import run_experiment


def test_ablation_trackbuffer_policy(benchmark):
    results = run_experiment(benchmark, "ablation_trackbuffer")

    # The paper's fix: full-track retention beats the stock policy under
    # a VLD, and any read-ahead beats none.
    assert results["full_track"] >= results["dartmouth"] * 0.95
    assert results["full_track"] > results["disabled"]
