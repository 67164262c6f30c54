"""Multi-host reports and event traces, pinned against recorded values.

``TestDeterminism`` compares a run with its own repeat; nothing there
would notice an engine change that renumbered, merged or reordered
events consistently.  These digests were recorded *before* the engine's
dispatch path was rewritten (DESIGN.md section 12) and cover the full
report -- every scalar, ``report["events"]`` and every ``(time, seq,
name)`` of the trace -- so they must never be edited to follow a speed
change: a different digest means the public output moved.

The shapes: the performance ledger's (8 hosts x 4 shards, ``satf``,
``mixed``), 3 hosts x 2 disks over every workload and policy, the
depth-1 identity shape, zero think time (every wake-up a same-instant
tie), one think time per host, and a shard inside a fail-slow window.
"""

import pytest

from repro.disk.specs import ST19101
from repro.hosts.multihost import run_multihost
from tests._pins import repr_pin

SHAPES = {
    "ledger-8x4-satf-mixed": dict(
        hosts=8, shards=4, policy="satf", workload="mixed",
        requests_per_host=500, request_sectors=8, seed=11,
    ),
    "depth1-1x1-fifo": dict(
        hosts=1, disks=1, policy="fifo", requests_per_host=120
    ),
    "zero-think-4x2-satf": dict(
        hosts=4, disks=2, policy="satf", workload="mixed",
        think_seconds=0.0, requests_per_host=80,
    ),
    "per-host-think-3x2-scan": dict(
        hosts=3, disks=2, policy="scan", workload="random-update",
        think_seconds=[0.0, 0.0003, 0.0011], requests_per_host=80,
    ),
    "shard-slow-5x3-satf": dict(
        hosts=5, shards=3, policy="satf", workload="mixed",
        requests_per_host=80,
        shard_slow={"shard": 1, "factor": 4.0, "after": 20, "ops": 40},
    ),
}
for _workload in ("random-update", "sequential", "mixed"):
    for _policy in ("fifo", "scan", "satf"):
        SHAPES[f"3x2-{_workload}-{_policy}"] = dict(
            hosts=3, disks=2, policy=_policy, workload=_workload,
            requests_per_host=60, seed=7,
        )

#: shape -> (sha256 of ``repr(report)``, events fired, requests).
PINNED = {
    "ledger-8x4-satf-mixed": (
        "bdada87b2372c7087a36222fb851a2d1f8782d93fd7a934f17d2bab4fb37f54c",
        12808, 4000,
    ),
    "depth1-1x1-fifo": (
        "b03d895346c1e762a8ba9693b7c71a532560c250a76648b617ff8bb4bc8ce831",
        483, 120,
    ),
    "zero-think-4x2-satf": (
        "ad063975b95c0f9bc35e403f53b492cb19a67b48977d15a4e7ca94f839a537cd",
        711, 320,
    ),
    "per-host-think-3x2-scan": (
        "779ce2aed1228d8594a29e60dba5e5bcede7c9a7611f93f92836c92d8c59edcb",
        729, 240,
    ),
    "shard-slow-5x3-satf": (
        "4d7299108e55270725afb2563eeb0e18ffe114067778f0fd61c165e599a796d9",
        1346, 400,
    ),
    "3x2-random-update-fifo": (
        "38567da7bc2bb6b2f7a4502c7bb52dd252c30e57344f8813372b2ca1bc81c79b",
        602, 180,
    ),
    "3x2-random-update-scan": (
        "59dfdacdad52bcd1f6e7bcdc5056d6cdd486feb5970ce3207b28105507dad671",
        604, 180,
    ),
    "3x2-random-update-satf": (
        "2d880f4266948d04502a52bf11d68b412751db7cbc108d646e074f2fdf148b89",
        603, 180,
    ),
    "3x2-sequential-fifo": (
        "aead001af22e38481885321c6fd911b55b63bf73476437411f280226dd19ea7a",
        589, 180,
    ),
    "3x2-sequential-scan": (
        "2c745322925d19a06cd29a35ce3e02538d6ec6b7f356c1a77e846e8a20b541a7",
        578, 180,
    ),
    "3x2-sequential-satf": (
        "983a4b20f4957e183f68ee36e453f62ba01916e33e6e2229dfa42eb87c3e71fd",
        588, 180,
    ),
    "3x2-mixed-fifo": (
        "7f7a44c40e515273b5b4cc7972c3b3d2baa21aabe4ce1df6a770aa0a6b7d333e",
        607, 180,
    ),
    "3x2-mixed-scan": (
        "d2d4d065c5572f53c5bae6eac3a977d12ab83c5d186085dc5a1ca86043ec26b0",
        617, 180,
    ),
    "3x2-mixed-satf": (
        "6e5a48294835b3c390b4562c98cf9f8772adf5ba230eeb053f7ffd025c7961ef",
        613, 180,
    ),
}

#: Events fired per host request on the ledger's shape: what the counted
#: guard in ``test_multihost_complexity.py`` holds the engine to (a
#: cheaper event, not fewer events).
LEDGER_EVENTS_PER_REQUEST = 12808 / 4000


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_reports_and_traces_are_pinned(shape):
    report = run_multihost(ST19101, trace=True, **SHAPES[shape])
    digest, events, requests = PINNED[shape]
    # The cheap fields first: a count mismatch says more than a digest.
    assert report["requests"] == requests
    assert report["events"] == events == len(report["trace"])
    assert repr_pin(report) == digest


def test_the_slow_shape_really_limps():
    """The pin above is only worth its name if the window opened."""
    report = run_multihost(
        ST19101, trace=True, **SHAPES["shard-slow-5x3-satf"]
    )
    shards = report["per_shard"]["shards"]
    assert [row["ops_slowed"] for row in shards] == [0, 40, 0]
    assert report["per_shard"]["degraded_window"]["completed"] > 0
