"""Property-based transparency proof for the interposer stack.

The observability interposers promise to be invisible: for *any* sequence
of block operations, a wrapped device must return byte-identical data,
identical latency breakdowns, and leave the simulated clock at the same
instant as a bare device driven by the same sequence.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.blockdev.interpose import (
    MetricsDevice,
    TracingDevice,
    find_layer,
)
from repro.blockdev.regular import RegularDisk
from repro.disk.disk import Disk
from repro.disk.specs import ST19101

_SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

_BLOCK = 4096
# Two simulated cylinders: 2 * 16 * 256 sectors / 8 per block.
_NUM_BLOCKS = (2 * 16 * 256) // 8


def _operations():
    lba = st.integers(min_value=0, max_value=_NUM_BLOCKS - 1)
    fill = st.integers(min_value=0, max_value=255)
    run_lba = st.integers(min_value=0, max_value=_NUM_BLOCKS - 5)
    count = st.integers(min_value=1, max_value=4)
    return st.lists(
        st.one_of(
            st.tuples(st.just("write"), lba, fill),
            st.tuples(st.just("read"), lba),
            st.tuples(st.just("write_many"), run_lba, count, fill),
            st.tuples(st.just("read_many"), run_lba, count),
            st.tuples(
                st.just("idle"),
                st.floats(min_value=0.0, max_value=0.01),
            ),
        ),
        min_size=1,
        max_size=30,
    )


def _apply(device, op):
    kind = op[0]
    if kind == "write":
        return device.write_block(op[1], bytes([op[2]]) * _BLOCK)
    if kind == "read":
        return device.read_block(op[1])
    if kind == "write_many":
        _, lba, count, fill = op
        return device.write_blocks(lba, count, bytes([fill]) * _BLOCK * count)
    if kind == "read_many":
        return device.read_blocks(op[1], op[2])
    device.idle(op[1])
    return None


@given(ops=_operations())
@_SETTINGS
def test_wrapped_device_is_byte_and_latency_identical(ops):
    bare = RegularDisk(Disk(ST19101, num_cylinders=2))
    wrapped = TracingDevice(
        MetricsDevice(RegularDisk(Disk(ST19101, num_cylinders=2)))
    )
    for op in ops:
        got_bare = _apply(bare, op)
        got_wrapped = _apply(wrapped, op)
        if op[0] in ("read", "read_many"):
            assert got_wrapped[0] == got_bare[0]
            assert got_wrapped[1] == got_bare[1]
        elif op[0] != "idle":
            assert got_wrapped == got_bare
    assert wrapped.disk.clock.now == bare.disk.clock.now


@given(ops=_operations())
@_SETTINGS
def test_metrics_totals_equal_sum_of_breakdowns(ops):
    wrapped = TracingDevice(
        MetricsDevice(RegularDisk(Disk(ST19101, num_cylinders=2)))
    )
    metrics = find_layer(wrapped, MetricsDevice)
    device_time = 0.0
    visible_ops = 0
    for op in ops:
        result = _apply(wrapped, op)
        if op[0] in ("read", "read_many"):
            device_time += result[1].total
            visible_ops += 1
        elif op[0] != "idle":
            device_time += result.total
            visible_ops += 1
    assert sum(metrics.ops.values()) == visible_ops
    assert abs(metrics.device_seconds() - device_time) < 1e-9
