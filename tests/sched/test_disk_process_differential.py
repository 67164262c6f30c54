"""The callback disk process against the generator it replaced.

``tests/sched/reference_disk_process.py`` keeps the engine-mode path as
it was: the generator disk process (an ``Until`` per service, a
``submitted`` signal while idle), its ``submit``/``close``, and the
``service_one`` whose pass-over loop incremented every pending request
on each policy pick.  Here every multi-host shape runs on both, and the
full ``(time, seq, name)`` trace and every request's final ``passes``
must compare ``==``, and the reports' ``repr``s too: the pinned shapes
of ``tests/hosts/test_multihost_identity.py``, one shape where the aging
override fires again and again, and hypothesis-drawn shapes over host
and disk counts, policies, think times, fail-slow windows and
starvation bounds small enough for the override to fire.
"""

from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.disk.specs import ST19101
from repro.hosts.multihost import run_multihost
from repro.sched.scheduler import DiskScheduler
from tests.hosts.test_multihost_identity import SHAPES
from tests.sched.reference_disk_process import reference_disk_process


@contextmanager
def _recorded(requests, starvation_bound):
    """Record every submitted request (``(disk, request)``, in submit
    order) and, when ``starvation_bound`` is given, build every scheduler
    with it -- around whichever ``submit`` the class has now."""
    submit = DiskScheduler.__dict__["submit"]
    init = DiskScheduler.__dict__["__init__"]

    def recording_submit(self, *args, **kwargs):
        req = submit(self, *args, **kwargs)
        requests.append((self.name, req))
        return req

    def bounded_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        if starvation_bound is not None:
            self.starvation_bound = starvation_bound

    DiskScheduler.submit = recording_submit
    DiskScheduler.__init__ = bounded_init
    try:
        yield
    finally:
        DiskScheduler.submit = submit
        DiskScheduler.__init__ = init


def _observe(shape, starvation_bound=None):
    requests = []
    with _recorded(requests, starvation_bound):
        report = run_multihost(ST19101, trace=True, **shape)
    passes = [(disk, req.seq, req.done, req.passes) for disk, req in requests]
    return report, passes


def _assert_same(shape, starvation_bound=None):
    report, passes = _observe(shape, starvation_bound)
    with reference_disk_process():
        expected_report, expected_passes = _observe(shape, starvation_bound)
    assert report["trace"] == expected_report["trace"]
    # repr, as the identity pins hash it: an idle shard's percentiles
    # are NaN, which no == holds equal.
    assert repr(report) == repr(expected_report)
    assert passes == expected_passes
    return report, passes


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_pinned_shapes_match_the_generator(shape):
    _assert_same(SHAPES[shape])


def test_aging_override_fires_and_matches():
    """Six hosts with no think time keep five requests queued behind the
    one in service; with a bound of 2 the oldest reaches it again and
    again, and the override takes it ahead of SATF's choice."""
    shape = dict(
        hosts=6, disks=1, policy="satf", workload="random-update",
        think_seconds=0.0, requests_per_host=40, seed=5,
    )
    _, passes = _assert_same(shape, starvation_bound=2)
    assert all(done for _, _, done, _ in passes)
    counts = [count for _, _, _, count in passes]
    assert max(counts) == 2
    assert counts.count(2) > 10


def test_the_reference_is_installed_and_removed():
    submit = DiskScheduler.__dict__["submit"]
    with reference_disk_process():
        assert DiskScheduler.__dict__["submit"] is not submit
        assert "_run" in DiskScheduler.__dict__
    assert DiskScheduler.__dict__["submit"] is submit
    assert "_run" not in DiskScheduler.__dict__


@st.composite
def _shapes(draw):
    hosts = draw(st.integers(1, 6))
    banks = draw(st.integers(1, 4))
    think = draw(
        st.one_of(
            st.just(0.0),
            st.sampled_from([0.0001, 0.0002, 0.001]),
            st.lists(
                st.sampled_from([0.0, 0.00005, 0.0003, 0.0011]),
                min_size=hosts,
                max_size=hosts,
            ),
        )
    )
    shape = dict(
        hosts=hosts,
        policy=draw(st.sampled_from(["fifo", "scan", "satf"])),
        workload=draw(st.sampled_from(["random-update", "sequential", "mixed"])),
        think_seconds=think,
        requests_per_host=draw(st.integers(1, 30)),
        request_sectors=draw(st.sampled_from([8, 16])),
        seed=draw(st.integers(0, 1 << 20)),
    )
    if draw(st.booleans()):
        shape["shards"] = banks
        if draw(st.booleans()):
            shape["shard_slow"] = {
                "shard": draw(st.integers(0, banks - 1)),
                "factor": draw(st.sampled_from([1.5, 4.0])),
                "after": draw(st.integers(0, 10)),
                "ops": draw(st.one_of(st.none(), st.integers(1, 20))),
            }
    else:
        shape["disks"] = banks
    bound = draw(st.one_of(st.none(), st.integers(1, 3)))
    return shape, bound


@settings(max_examples=60, deadline=None)
@given(_shapes())
def test_drawn_shapes_match_the_generator(drawn):
    shape, bound = drawn
    _assert_same(shape, starvation_bound=bound)
