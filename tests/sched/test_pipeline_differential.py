"""The queued-workload driver against the pipeline class it replaced.

``simulate_queued_workload`` once drove its host through
``HostPipeline``; it now thinks inline.  The oracle in
``reference_pipeline.py`` is that class and that driver verbatim.  At
every queue depth, policy and workload the two must return the same
scalars and make the same disk calls at the same simulated instants,
compared with ``==``.
"""

import pytest

from repro.disk.disk import Disk
from repro.disk.specs import ST19101
from repro.harness.runner import QUEUE_WORKLOADS, simulate_queued_workload
from tests.sched.reference_pipeline import reference_simulate_queued_workload

REQUESTS = 120


@pytest.fixture
def record_disk_calls(monkeypatch):
    """Shim ``Disk.write`` to log (sector, count, start, end)."""
    calls = []
    real_write = Disk.write

    def write(self, sector, count=1, *args, **kwargs):
        start = self.clock.now
        result = real_write(self, sector, count, *args, **kwargs)
        calls.append((sector, count, start, self.clock.now))
        return result

    monkeypatch.setattr(Disk, "write", write)
    return calls


@pytest.mark.parametrize("workload", QUEUE_WORKLOADS)
@pytest.mark.parametrize("policy", ["fifo", "scan", "satf"])
@pytest.mark.parametrize("queue_depth", [1, 2, 4, 8])
def test_inline_think_matches_the_pipeline(
    record_disk_calls, queue_depth, policy, workload
):
    args = dict(
        queue_depth=queue_depth,
        policy=policy,
        workload=workload,
        requests=REQUESTS,
    )
    want = reference_simulate_queued_workload(ST19101, **args)
    want_calls = list(record_disk_calls)
    record_disk_calls.clear()
    got = simulate_queued_workload(ST19101, **args)
    assert len(want_calls) == REQUESTS
    assert record_disk_calls == want_calls
    assert got == want
