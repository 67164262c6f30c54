"""The batched data-movement identity pin: batched path == scalar path.

The VLD's run-granular data movement is only allowed to *batch* work,
not to change it: whole physically contiguous runs are allocated at
once, written through single ``Disk.write_run`` calls, and their map
updates applied in one pass, but placement, timing, and the per-block
media access sequence must be bit-for-bit what the scalar per-block loop
it replaced produces.  That loop lives here, as
:class:`ScalarMovementVLD`, the reference.  Same discipline as
``tests/harness/test_identity.py`` for the event engine: diff the full
``(op, sector, count, start, end)`` disk call sequence via a recording
shim, every end-state structure, and every scalar the figure pipeline
consumes.
"""

import random
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.disk.disk import Disk
from repro.disk.specs import ST19101
from repro.harness.configs import STACKS
from repro.vlog.vld import VirtualLogDisk

_SETTINGS = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# ======================================================================
# The per-block reference
# ======================================================================


class ScalarMovementVLD(VirtualLogDisk):
    """A VLD that moves data one block at a time: ``_write_run`` as it
    stood before run-granular movement (one ``allocate()``, one queued
    write and one map update per block), then the same barrier, commit
    and recycle."""

    def _write_run(
        self, lba, data, data_offset_blocks, count, chunk_id, breakdown
    ):
        displaced = []
        spb = self.sectors_per_block
        block_size = self.block_size
        for i in range(count):
            new_block = self.allocator.allocate()
            lo = (data_offset_blocks + i) * block_size
            self.scheduler.write(
                new_block * spb,
                spb,
                data[lo : lo + block_size],
                charge_scsi=False,
            )
            old = self.imap.set(lba + i, new_block)
            self.reverse[new_block] = lba + i
            if old is not None:
                displaced.append(old)
        breakdown.add(self.scheduler.barrier())
        breakdown.add(
            self.vlog.append(chunk_id, self.imap.chunk_entries(chunk_id))
        )
        for old in displaced:
            self.reverse.pop(old, None)
        self.allocator.free_blocks(displaced)


# ======================================================================
# Disk call traces
# ======================================================================


class TraceShim:
    """Record every media access as per-block ``(op, sector, count,
    start, end)`` tuples.

    ``write_run`` covers many blocks under one clock advance, so its
    per-block entries carry the run's boundary times only: the first
    block gets the start instant, the last gets the end, interior blocks
    get ``None``.  :func:`masked` blanks the same positions out of a
    scalar trace so the two compare exactly on everything the batched
    trace can claim -- the complete per-block op/sector/count order plus
    every run-boundary clock instant.
    """

    def __init__(self):
        self.calls = []
        real_read, real_write = Disk.read, Disk.write
        real_write_run = Disk.write_run
        self._saved = (real_read, real_write, real_write_run)
        calls = self.calls

        def read(self, sector, count=1, *args, **kwargs):
            start = self.clock.now
            result = real_read(self, sector, count, *args, **kwargs)
            calls.append(("read", sector, count, start, self.clock.now))
            return result

        def write(self, sector, count=1, *args, **kwargs):
            start = self.clock.now
            result = real_write(self, sector, count, *args, **kwargs)
            calls.append(("write", sector, count, start, self.clock.now))
            return result

        def write_run(self, sector, count, block_sectors, *args, **kwargs):
            start = self.clock.now
            before = len(calls)
            result = real_write_run(
                self, sector, count, block_sectors, *args, **kwargs
            )
            if len(calls) > before:
                # Fell back to per-block self.write() (fault injector /
                # misalignment): the shim already logged every block.
                return result
            blocks = count // block_sectors
            end = self.clock.now
            for i in range(blocks):
                calls.append((
                    "write",
                    sector + i * block_sectors,
                    block_sectors,
                    start if i == 0 else None,
                    end if i == blocks - 1 else None,
                ))
            return result

        self._shims = (read, write, write_run)

    def __enter__(self):
        read, write, write_run = self._shims
        Disk.read, Disk.write, Disk.write_run = read, write, write_run
        return self

    def __exit__(self, *exc):
        Disk.read, Disk.write, Disk.write_run = self._saved
        return False

    def take(self):
        trace = list(self.calls)
        self.calls.clear()
        return trace


def masked(scalar_trace, batched_trace):
    """The scalar trace with times blanked where the batched trace has
    ``None`` (interior blocks of a run, whose individual instants the
    single clock advance does not materialize)."""
    out = []
    for entry, ref in zip(scalar_trace, batched_trace):
        op, sector, count, start, end = entry
        out.append((
            op,
            sector,
            count,
            start if ref[3] is not None else None,
            end if ref[4] is not None else None,
        ))
    return out


# ======================================================================
# Workloads
# ======================================================================


def apply_workload(vld, plan):
    """Drive a VLD through a deterministic mixed write/trim/idle plan."""
    for op in plan:
        kind = op[0]
        if kind == "write":
            _, lba, count, payload = op
            vld.write_blocks(lba, count, payload)
        elif kind == "trim":
            _, lba, count = op
            vld.trim(lba, count)
        else:
            vld.idle(op[1])


@st.composite
def workload_plans(draw):
    """(num_cylinders, plan): populate + random runs/overwrites/trims
    with occasional idle (compaction) windows."""
    num_cylinders = draw(st.integers(min_value=3, max_value=6))
    span = draw(st.integers(min_value=48, max_value=120))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rounds = draw(st.integers(min_value=20, max_value=60))
    rng = random.Random(seed)
    block = 4096
    plan = [("write", lba, 1, None) for lba in range(span)]
    for _ in range(rounds):
        roll = rng.random()
        if roll < 0.70:
            count = rng.choice((1, 2, 4, 8, 16))
            lba = rng.randrange(span - count + 1)
            if rng.random() < 0.3:
                payload = rng.randbytes(count * block)
            else:
                payload = None  # the dominant zero-fill traffic
            plan.append(("write", lba, count, payload))
        elif roll < 0.85:
            count = rng.choice((1, 2, 4))
            plan.append(("trim", rng.randrange(span - count + 1), count))
        else:
            plan.append(("idle", rng.uniform(0.005, 0.05)))
    plan.append(("idle", 0.05))
    return num_cylinders, plan


def end_state(vld):
    disk = vld.disk
    return {
        "clock": disk.clock.now,
        "busy": disk.counters.busy_time,
        "writes": disk.counters.writes,
        "sectors_written": disk.counters.sectors_written,
        "head": (disk.head_cylinder, disk.head_head),
        "imap": sorted(vld.imap.items()),
        "reverse": sorted(vld.reverse.items()),
        "free_sectors": vld.freemap.free_sectors,
        "allocs": (vld.allocator.allocations, vld.allocator.fallbacks),
        "moved": vld.compactor.blocks_moved,
        "image": bytes(disk._data),
    }


def run_plan(num_cylinders, plan, vld_class):
    disk = Disk(ST19101, num_cylinders=num_cylinders)
    vld = vld_class(disk)
    apply_workload(vld, plan)
    return vld


# ======================================================================
# The pin
# ======================================================================


class TestBatchedMovementIdentity:
    @given(workload_plans())
    @_SETTINGS
    def test_disk_call_sequence_identical(self, rig):
        """The strongest form: every media access the scalar path makes,
        the batched path makes -- same per-block op/sector/count order,
        same run-boundary clock instants."""
        num_cylinders, plan = rig
        with TraceShim() as shim:
            run_plan(num_cylinders, plan, ScalarMovementVLD)
            scalar = shim.take()
            run_plan(num_cylinders, plan, VirtualLogDisk)
            batched = shim.take()
        assert len(batched) == len(scalar)
        assert batched == masked(scalar, batched)

    @given(workload_plans())
    @_SETTINGS
    def test_end_state_identical(self, rig):
        """Map, reverse map, free map, counters, clock, head position,
        and the full disk image agree bytewise."""
        num_cylinders, plan = rig
        scalar = end_state(run_plan(num_cylinders, plan, ScalarMovementVLD))
        batched = end_state(run_plan(num_cylinders, plan, VirtualLogDisk))
        for key in scalar:
            assert batched[key] == scalar[key], key

    def test_read_back_correct_under_queue(self):
        """Batched movement at queue depth 4 under satf (the torture
        smoke's shape).  Scalar identity is a depth-1 contract -- at
        greater depth one run request occupies the queue where the
        scalar path queues per-block requests, so the policy legally
        reorders them differently -- but every logical block must still
        read back exactly what was last written to it, on both paths."""
        block = 4096

        def run(vld_class):
            disk = Disk(ST19101, num_cylinders=4)
            vld = vld_class(disk, queue_depth=4, sched="satf")
            rng = random.Random(0xD4)
            span = 96
            shadow = {lba: bytes(block) for lba in range(span)}
            for lba in range(span):
                vld.write_blocks(lba, 1)
            for _ in range(80):
                count = rng.choice((1, 4, 8))
                lba = rng.randrange(span - count + 1)
                if rng.random() < 0.4:
                    payload = rng.randbytes(count * block)
                    for i in range(count):
                        shadow[lba + i] = payload[i * block : (i + 1) * block]
                else:
                    payload = None
                    for i in range(count):
                        shadow[lba + i] = bytes(block)
                vld.write_blocks(lba, count, payload)
            vld.idle(0.05)
            for lba in range(span):
                got, _ = vld.read_blocks(lba, 1)
                assert bytes(got) == shadow[lba], (vld_class, lba)

        run(VirtualLogDisk)
        run(ScalarMovementVLD)


# ======================================================================
# Figure scalars
# ======================================================================


def _force_scalar_movement(monkeypatch):
    """Make every VLD the harness builds move data per block."""
    monkeypatch.setattr(
        VirtualLogDisk, "_write_run", ScalarMovementVLD._write_run
    )


class TestFigureScalarsIdentical:
    def test_fig6_smallfile_point(self, monkeypatch):
        """The Figure 6 small-file point on the vld stack is byte-equal
        (plain ==, no tolerance) under batched and scalar movement."""
        from repro.harness.experiments import _point_smallfile

        kwargs = dict(
            seed=3, config=STACKS["ufs-vld"].to_params(), num_files=80,
        )
        batched = _point_smallfile(**kwargs)
        _force_scalar_movement(monkeypatch)
        scalar = _point_smallfile(**kwargs)
        assert batched == scalar

    def test_table2_vld_cell(self, monkeypatch):
        """The Table 2 vld cell (latency + component fractions, the
        Figure 9 inputs) is byte-equal under batched and scalar
        movement."""
        from repro.harness.experiments import _point_table2

        kwargs = dict(
            seed=11,
            config=replace(STACKS["ufs-vld"], metrics=True).to_params(),
            utilization=0.4, updates=60, warmup=20, compact_seconds=2.0,
        )
        batched = _point_table2(**kwargs)
        _force_scalar_movement(monkeypatch)
        scalar = _point_table2(**kwargs)
        assert batched == scalar


# ======================================================================
# allocate_run contract
# ======================================================================


class TestAllocateRunContract:
    """The documented contract: the first block is exactly ``allocate()``'s
    pick, the run is physically contiguous, every block transitions
    free -> used, and the length is in ``[1, k]``.  (That the *scalar
    write path would have picked the very same blocks in sequence* is
    pinned by the full-trace identity tests above, where the clock
    advances between picks exactly as it does in service.)"""

    @staticmethod
    def _fresh(seed=None, writes=0):
        disk = Disk(ST19101, num_cylinders=3)
        vld = VirtualLogDisk(disk)
        if writes:
            rng = random.Random(seed)
            for _ in range(writes):
                vld.write_blocks(rng.randrange(64), 1)
        return vld

    @pytest.mark.parametrize("want", [1, 2, 4, 8, 16])
    @pytest.mark.parametrize("writes", [0, 40])
    def test_first_block_is_the_scalar_pick(self, want, writes):
        vld = self._fresh(seed=want, writes=writes)
        twin = self._fresh(seed=want, writes=writes)
        spb = vld.sectors_per_block
        free_before = vld.freemap.free_sectors
        first, got = vld.allocator.allocate_run(want)
        assert 1 <= got <= want
        assert first == twin.allocator.allocate()
        for i in range(got):
            assert not vld.freemap.is_free((first + i) * spb)
        assert vld.freemap.free_sectors == free_before - got * spb
