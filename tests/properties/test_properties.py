"""Property-based tests (hypothesis) on core invariants.

Covers the structures whose correctness the whole reproduction leans on:
the virtual log's reachability invariant under arbitrary operation
sequences, free-map accounting, bitmap allocation, the analytical models'
internal identities, and file system read/write equivalence to a reference
model.
"""

import math

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.disk.disk import Disk
from repro.disk.freemap import FreeSpaceMap
from repro.disk.geometry import DiskGeometry
from repro.disk.specs import ST19101
from repro.models.compactor import (
    average_latency_closed_form,
    nonrandomness_correction,
    total_skip_exact,
)
from repro.models.single_track import (
    expected_skip_recurrence,
    expected_skip_sectors,
)
from repro.ufs.bitmap import Bitmap
from repro.vlog.allocator import AllocationPolicy, EagerAllocator
from repro.vlog.entries import MapRecord
from repro.vlog.recovery import disk_reader
from repro.vlog.virtual_log import VirtualLog
from tests._media import poke

_SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# ----------------------------------------------------------------------
# Analytical model identities
# ----------------------------------------------------------------------

@given(
    n=st.integers(min_value=2, max_value=300),
    k=st.integers(min_value=1, max_value=300),
)
@_SETTINGS
def test_recurrence_equals_closed_form(n, k):
    """Appendix A.1's induction, checked exhaustively-ish."""
    k = min(k, n)
    assert math.isclose(
        expected_skip_recurrence(n, k), (n - k) / (1 + k), rel_tol=1e-9
    )


@given(
    n=st.integers(min_value=4, max_value=512),
    p=st.floats(min_value=0.01, max_value=1.0),
)
@_SETTINGS
def test_skip_expectation_bounds(n, p):
    value = expected_skip_sectors(n, p)
    assert 0.0 <= value <= n


@given(
    n=st.integers(min_value=8, max_value=500),
    m=st.integers(min_value=0, max_value=499),
)
@_SETTINGS
def test_compactor_model_positive_and_finite(n, m):
    m = min(m, n - 1)
    latency = average_latency_closed_form(n, m, 1e-3, 1e-4)
    assert latency > 0.0
    assert math.isfinite(latency)
    assert total_skip_exact(n, m) >= 0.0
    assert nonrandomness_correction(n, m) >= 0.0


# ----------------------------------------------------------------------
# Bitmap allocation
# ----------------------------------------------------------------------

@given(
    ops=st.lists(
        st.tuples(st.booleans(), st.integers(min_value=0, max_value=127)),
        max_size=200,
    )
)
@_SETTINGS
def test_bitmap_free_count_matches_contents(ops):
    bitmap = Bitmap(128)
    reference = set()
    for is_set, index in ops:
        if is_set:
            bitmap.set(index)
            reference.add(index)
        else:
            bitmap.clear(index)
            reference.discard(index)
    assert bitmap.free_count == 128 - len(reference)
    for index in range(128):
        assert bitmap.test(index) == (index in reference)


@given(
    used=st.sets(st.integers(min_value=0, max_value=63), max_size=48),
    count=st.integers(min_value=1, max_value=4),
)
@_SETTINGS
def test_bitmap_find_free_run_returns_truly_free(used, count):
    bitmap = Bitmap(64)
    for index in used:
        bitmap.set(index)
    found = bitmap.find_free_run(count, align=count)
    if found is not None:
        assert found % count == 0
        assert all(not bitmap.test(found + k) for k in range(count))


# ----------------------------------------------------------------------
# Free-space map accounting
# ----------------------------------------------------------------------

@given(
    ops=st.lists(
        st.tuples(
            st.booleans(),
            st.integers(min_value=0, max_value=511),
            st.integers(min_value=1, max_value=16),
        ),
        max_size=120,
    )
)
@_SETTINGS
def test_freemap_counts_consistent(ops):
    geometry = DiskGeometry(ST19101, num_cylinders=1)
    fm = FreeSpaceMap(geometry)
    reference = [True] * geometry.total_sectors
    for free, start, count in ops:
        start = start % (geometry.total_sectors - 16)
        if free:
            fm.mark_free(start, count)
        else:
            fm.mark_used(start, count)
        for s in range(start, start + count):
            reference[s] = free
    assert fm.free_sectors == sum(reference)
    for cylinder in range(geometry.num_cylinders):
        for head in range(geometry.tracks_per_cylinder):
            base = geometry.track_start(cylinder, head)
            expected = sum(
                reference[base : base + geometry.sectors_per_track]
            )
            assert fm.track_free_count(cylinder, head) == expected


# ----------------------------------------------------------------------
# Map record serialisation
# ----------------------------------------------------------------------

@given(
    chunk_id=st.integers(min_value=0, max_value=2**31 - 1),
    seqno=st.integers(min_value=0, max_value=2**62),
    entries=st.lists(
        st.integers(min_value=0, max_value=2**32 - 1), max_size=100
    ),
    prev=st.one_of(st.none(), st.integers(min_value=0, max_value=2**31)),
)
@_SETTINGS
def test_map_record_roundtrip(chunk_id, seqno, entries, prev):
    record = MapRecord(
        chunk_id=chunk_id, seqno=seqno, entries=entries, prev_root=prev
    )
    parsed = MapRecord.unpack(record.pack(4096))
    assert parsed == record


# ----------------------------------------------------------------------
# Virtual log: the paper's central data structure
# ----------------------------------------------------------------------

@given(
    writes=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=6),
            st.integers(min_value=0, max_value=10_000),
        ),
        min_size=1,
        max_size=120,
    )
)
@_SETTINGS
def test_virtual_log_recovers_exactly_after_any_history(writes):
    """For every sequence of chunk overwrites: the invariants hold and a
    cold traversal from the tail reconstructs exactly the final state."""
    disk = Disk(ST19101, num_cylinders=2)
    freemap = FreeSpaceMap(disk.geometry)
    chunks = {}
    allocator = EagerAllocator(
        disk, freemap, 8, AllocationPolicy.NEAREST
    )
    vlog = VirtualLog(disk, allocator, lambda c: chunks[c], 4096)
    for chunk_id, value in writes:
        chunks[chunk_id] = [value, value + 1]
        vlog.append(chunk_id, chunks[chunk_id])
    vlog.check_invariants()
    recovered, _cost, _n = vlog.recover_from_tail(
        vlog.tail, disk_reader(vlog.disk)
    )
    vlog.repair_reachability()
    assert recovered == {c: list(v) for c, v in chunks.items()}
    vlog.check_invariants()


@given(
    writes=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=4),
            st.integers(min_value=0, max_value=1000),
        ),
        min_size=5,
        max_size=80,
    ),
    garbage_seed=st.integers(min_value=0, max_value=1000),
)
@_SETTINGS
def test_virtual_log_recovery_survives_recycled_block_reuse(
    writes, garbage_seed
):
    """Freed record blocks overwritten with arbitrary data must never
    confuse recovery."""
    import random as _random

    disk = Disk(ST19101, num_cylinders=2)
    freemap = FreeSpaceMap(disk.geometry)
    chunks = {}
    allocator = EagerAllocator(disk, freemap, 8, AllocationPolicy.NEAREST)
    vlog = VirtualLog(disk, allocator, lambda c: chunks[c], 4096)
    for chunk_id, value in writes:
        chunks[chunk_id] = [value]
        vlog.append(chunk_id, chunks[chunk_id])
    rng = _random.Random(garbage_seed)
    for block in range(disk.total_sectors // 8):
        if freemap.run_is_free(block * 8, 8) and rng.random() < 0.5:
            poke(disk, block * 8, bytes([rng.randrange(256)]) * 4096)
    recovered, _cost, _n = vlog.recover_from_tail(
        vlog.tail, disk_reader(vlog.disk)
    )
    assert recovered == {c: list(v) for c, v in chunks.items()}


# ----------------------------------------------------------------------
# VLD end-to-end equivalence with a dict model
# ----------------------------------------------------------------------

@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["write", "trim", "crash+recover"]),
            st.integers(min_value=0, max_value=40),
            st.integers(min_value=0, max_value=255),
        ),
        max_size=40,
    )
)
@settings(
    max_examples=20, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_vld_equivalent_to_dict_model(ops):
    from repro.vlog.vld import VirtualLogDisk

    vld = VirtualLogDisk(Disk(ST19101, num_cylinders=4))
    model = {}
    for op, lba, fill in ops:
        if op == "write":
            payload = bytes([fill]) * 4096
            vld.write_block(lba, payload)
            model[lba] = payload
        elif op == "trim":
            vld.trim(lba)
            model.pop(lba, None)
        else:
            vld.power_down()
            vld.crash()
            vld.recover()
    for lba in range(41):
        data, _ = vld.read_block(lba)
        assert data == model.get(lba, bytes(4096))
    vld.vlog.check_invariants()


# ----------------------------------------------------------------------
# UFS write/read equivalence with a byte-array model
# ----------------------------------------------------------------------

@given(
    ops=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=30_000),
            st.integers(min_value=1, max_value=6_000),
            st.integers(min_value=0, max_value=255),
            st.booleans(),
        ),
        min_size=1,
        max_size=25,
    )
)
@settings(
    max_examples=15, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_ufs_matches_bytearray_model(ops):
    from repro.blockdev.regular import RegularDisk
    from repro.hosts.specs import SPARCSTATION_10
    from repro.ufs.ufs import UFS

    fs = UFS(RegularDisk(Disk(ST19101)), SPARCSTATION_10)
    fs.create("/model")
    model = bytearray()
    for offset, length, fill, sync in ops:
        payload = bytes([fill]) * length
        fs.write("/model", offset, payload, sync=sync)
        if len(model) < offset + length:
            model.extend(bytes(offset + length - len(model)))
        model[offset : offset + length] = payload
    fs.sync()
    fs.drop_caches()
    data, _ = fs.read("/model", 0, len(model))
    assert data == bytes(model)
    assert fs.stat("/model").size == len(model)
    # Structural invariant: the file system stays fsck-clean.
    from repro.ufs.fsck import fsck

    report = fsck(fs)
    assert report.ok, report.errors


@given(
    script=st.lists(
        st.tuples(
            st.sampled_from(
                ["create", "write", "unlink", "mkdir", "truncate", "rename"]
            ),
            st.integers(min_value=0, max_value=9),
            st.integers(min_value=0, max_value=60_000),
        ),
        min_size=1,
        max_size=30,
    )
)
# Shrinking onto a sparse tail block (once demoted to no fragments at all).
@example(script=[("create", 0, 0), ("truncate", 0, 4096), ("truncate", 0, 1)])
@example(script=[("create", 0, 0), ("truncate", 0, 8192), ("truncate", 0, 5000)])
@settings(
    max_examples=15, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_ufs_namespace_churn_stays_fsck_clean(script):
    """Arbitrary create/write/unlink/mkdir/truncate/rename churn never
    corrupts the structure (bitmaps, claims, namespace)."""
    from repro.blockdev.regular import RegularDisk
    from repro.fs.api import FileSystemError
    from repro.hosts.specs import SPARCSTATION_10
    from repro.ufs.fsck import fsck
    from repro.ufs.ufs import UFS

    fs = UFS(RegularDisk(Disk(ST19101)), SPARCSTATION_10)
    for op, slot, size in script:
        name = f"/n{slot}"
        try:
            if op == "create":
                fs.create(name)
            elif op == "mkdir":
                fs.mkdir(name)
            elif op == "write":
                fs.write(name, 0, bytes(max(1, size)))
            elif op == "truncate":
                fs.truncate(name, size)
            elif op == "rename":
                fs.rename(name, f"/n{(slot + 1) % 10}")
            else:
                fs.unlink(name)
        except FileSystemError:
            pass  # duplicate/missing names etc. are legitimate outcomes
    fs.sync()
    report = fsck(fs)
    assert report.ok, report.errors
