"""Invalidation and robustness contract of the content-addressed cache.

Every input of the key -- point function name, params, seed, and the
environment fingerprint over the source tree and platform specs -- must
independently produce a miss when it changes; and no on-disk corruption
may ever surface as anything worse than a recomputation.
"""

import json
import os

import pytest

from repro.harness import cache as cache_mod
from repro.harness.cache import (
    ResultCache,
    code_fingerprint,
    environment_fingerprint,
    spec_fingerprint,
)

FN = "pkg.module:point"


@pytest.fixture
def cache(tmp_path):
    return ResultCache(str(tmp_path / "cache"), fingerprint="f0")


class TestKeying:
    def test_roundtrip_canonicalizes(self, cache):
        stored = cache.put(FN, {"a": 1}, 7, ("x", 2.5))
        hit, value = cache.get(FN, {"a": 1}, 7)
        assert hit
        assert value == ["x", 2.5] == stored  # tuple -> list, both paths
        assert cache.stats() == {"hits": 1, "misses": 0}

    def test_param_order_irrelevant(self, cache):
        assert cache.key_of(FN, {"a": 1, "b": 2}, 0) == cache.key_of(
            FN, {"b": 2, "a": 1}, 0
        )

    @pytest.mark.parametrize(
        "fn,params,seed",
        [
            ("pkg.module:other", {"a": 1}, 7),  # different function
            (FN, {"a": 2}, 7),  # different param value
            (FN, {"a": 1, "b": 0}, 7),  # extra param
            (FN, {"a": 1}, 8),  # different seed
        ],
    )
    def test_any_input_change_misses(self, cache, fn, params, seed):
        cache.put(FN, {"a": 1}, 7, "value")
        hit, _ = cache.get(fn, params, seed)
        assert not hit

    def test_non_json_param_is_an_error(self, cache):
        """A parameter JSON cannot represent must not be keyed by its
        ``str()``: a default repr would never hit, and two objects that
        print alike would replay each other's results."""
        class Opaque:
            def __str__(self):
                return "same"

        for call in (cache.key_of, cache.get):
            with pytest.raises(TypeError):
                call(FN, {"a": Opaque()}, 7)
        with pytest.raises(TypeError):
            cache.put(FN, {"a": Opaque()}, 7, "value")

    def test_fingerprint_change_misses(self, tmp_path):
        directory = str(tmp_path / "cache")
        ResultCache(directory, fingerprint="f0").put(FN, {"a": 1}, 7, 42)
        hit, _ = ResultCache(directory, fingerprint="f1").get(FN, {"a": 1}, 7)
        assert not hit
        hit, value = ResultCache(directory, fingerprint="f0").get(
            FN, {"a": 1}, 7
        )
        assert hit and value == 42


class TestCorruption:
    def _entry_path(self, cache):
        key = cache.key_of(FN, {"a": 1}, 7)
        return os.path.join(cache.directory, key[:2], key + ".json")

    @pytest.mark.parametrize(
        "mangle",
        [
            lambda text: "not json at all {",  # garbage
            lambda text: text[: len(text) // 2],  # truncated write
            lambda text: "",  # empty file
            lambda text: json.dumps({"schema": 99}),  # missing fields
            lambda text: text.replace('"key"', '"kez"'),  # key mismatch
        ],
    )
    def test_corrupt_entries_are_misses(self, cache, mangle):
        cache.put(FN, {"a": 1}, 7, {"fine": True})
        path = self._entry_path(cache)
        with open(path) as fh:
            text = fh.read()
        with open(path, "w") as fh:
            fh.write(mangle(text))
        hit, value = cache.get(FN, {"a": 1}, 7)
        assert not hit and value is None
        # And a re-put repairs the entry.
        cache.put(FN, {"a": 1}, 7, {"fine": True})
        hit, value = cache.get(FN, {"a": 1}, 7)
        assert hit and value == {"fine": True}

    def test_missing_directory_is_a_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path / "never-created"))
        hit, _ = cache.get(FN, {}, 0)
        assert not hit


class TestFingerprints:
    def test_code_fingerprint_tracks_source_edits(self, tmp_path):
        tree = tmp_path / "tree"
        tree.mkdir()
        (tree / "mod.py").write_text("x = 1\n")
        code_fingerprint.cache_clear()
        before = code_fingerprint(str(tree))
        (tree / "mod.py").write_text("x = 2\n")
        code_fingerprint.cache_clear()
        after = code_fingerprint(str(tree))
        assert before != after
        # Non-.py files are not inputs.
        (tree / "notes.txt").write_text("irrelevant")
        code_fingerprint.cache_clear()
        assert code_fingerprint(str(tree)) == after

    def test_code_fingerprint_tracks_new_files(self, tmp_path):
        tree = tmp_path / "tree"
        tree.mkdir()
        (tree / "mod.py").write_text("x = 1\n")
        code_fingerprint.cache_clear()
        before = code_fingerprint(str(tree))
        (tree / "new.py").write_text("")
        code_fingerprint.cache_clear()
        assert code_fingerprint(str(tree)) != before

    def test_default_fingerprint_covers_repo_and_specs(self):
        env = environment_fingerprint()
        assert len(env) == 64
        # Deterministic within a process...
        assert env == environment_fingerprint()
        # ... and built from the repro tree + platform specs.
        assert len(code_fingerprint()) == 64
        assert len(spec_fingerprint()) == 64

    def test_default_cache_uses_environment_fingerprint(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        assert cache.fingerprint == environment_fingerprint()


def test_canonicalize_float_exactness():
    values = [0.1, 1 / 3, 1e-17, 123456.789]
    assert cache_mod.canonicalize(values) == values
