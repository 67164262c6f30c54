"""The VLFS idle-time compactor ("only an optimization", Section 3.4)."""

import random
from collections import Counter

import pytest

from repro.disk.disk import Disk
from repro.disk.specs import ST19101
from repro.hosts.specs import SPARCSTATION_10
from repro.vlfs.vlfs import VLFS

_MB = 1 << 20


@pytest.fixture
def fs():
    return VLFS(Disk(ST19101), SPARCSTATION_10)


def churn(fs, file_mb=10, updates=700, seed=3):
    rng = random.Random(seed)
    fs.create("/t")
    blob = bytes(4096) * 256
    contents = {}
    for chunk in range(file_mb):
        fs.write("/t", chunk * len(blob), blob)
    fs.sync()
    for i in range(updates):
        offset = rng.randrange(file_mb * 256) * 4096
        payload = bytes([i % 251]) * 4096
        fs.write("/t", offset, payload, sync=True)
        contents[offset] = payload
    return contents


def empty_tracks(fs):
    geometry = fs.disk.geometry
    return sum(
        1
        for cylinder in range(geometry.num_cylinders)
        for head in range(geometry.tracks_per_cylinder)
        if fs.freemap.track_free_count(cylinder, head)
        == geometry.sectors_per_track
    )


class TestVlfsCompactor:
    def test_creates_empty_tracks(self, fs):
        churn(fs)
        before = empty_tracks(fs)
        fs.compactor.run_for(3.0)
        assert fs.compactor.blocks_moved > 0
        assert empty_tracks(fs) >= before

    def test_a_track_it_cannot_empty_is_not_picked_again(self, fs, monkeypatch):
        """At seed 3 one track's only live content is the record of map
        chunk 0, and relocating a record puts it back on the same track:
        that pass frees nothing.  The compactor must leave the track for
        the rest of the call, not spend the whole budget on it, and must
        not count the pass as a compacted track."""
        churn(fs, updates=400)
        before = empty_tracks(fs)
        targets = []
        compact_track = fs.compactor._compact_track

        def recording(track, owners, deadline):
            targets.append(track)
            return compact_track(track, owners, deadline)

        monkeypatch.setattr(fs.compactor, "_compact_track", recording)
        fs.compactor.run_for(3.0)
        assert max(Counter(targets).values()) <= 2
        assert fs.compactor.tracks_compacted < len(targets)
        assert empty_tracks(fs) - before >= 20

    def test_preserves_contents(self, fs):
        contents = churn(fs, updates=500)
        fs.compactor.run_for(3.0)
        for offset, payload in contents.items():
            data, _ = fs.read("/t", offset, 4096)
            assert data == payload, f"offset {offset}"

    def test_survives_recovery_after_compaction(self, fs):
        contents = churn(fs, updates=400)
        fs.compactor.run_for(2.0)
        fs.power_down()
        fs.crash()
        fs.recover()
        fs.vlog.check_invariants()
        for offset, payload in list(contents.items())[:100]:
            data, _ = fs.read("/t", offset, 4096)
            assert data == payload

    def test_runs_from_idle_hook(self, fs):
        churn(fs, updates=400)
        start = fs.clock.now
        fs.idle(1.0)
        assert fs.clock.now >= start + 1.0
        assert fs.compactor.blocks_moved > 0

    def test_budget_respected(self, fs):
        churn(fs, updates=300)
        used = fs.compactor.run_for(0.05)
        assert used <= 0.05 + 0.3

    def test_negative_budget_rejected(self, fs):
        with pytest.raises(ValueError):
            fs.compactor.run_for(-1.0)

    def test_noop_on_empty_fs(self, fs):
        used = fs.compactor.run_for(0.5)
        assert fs.compactor.blocks_moved == 0
        assert used <= 0.5
