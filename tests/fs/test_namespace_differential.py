"""UFS, LFS and VLFS against a dict: the namespace, call for call.

One seeded script of a few hundred namespace calls runs on each file
system and on a small model of what a hierarchical namespace *is*.
After every call the two must agree on the exception type (or on there
being none) and, for every live path, on ``listdir``, ``exists`` and
``stat().is_dir`` / ``nlink``; then the file system is synced and brought
back from its on-disk state alone (``crash()`` + ``recover()``) and the
whole tree is compared again.

``repro.fs.namespace`` makes the three agree by construction; this test
is what says the one implementation is *right*, error paths included.

The script moves regular files and directories between directories; a
directory that changes parent must carry its ``..`` link with it.
"""

from __future__ import annotations

import random

import pytest

from repro.fs.api import (
    DirectoryNotEmpty,
    FileExists,
    FileNotFound,
    FileStat,
    FileSystemError,
    IsADirectory,
    NotADirectory,
)
from repro.fs.path import dirname_basename, split_path
from repro.ufs.fsck import fsck
from repro.ufs.ufs import UFS
from tests.fs.test_rename_truncate import build


class Model:
    """path tuple -> set of child names (a directory) or None (a file)."""

    def __init__(self):
        self.tree = {(): set()}

    def _resolve(self, parts, want_dir=False):
        parts = tuple(parts)
        for i, name in enumerate(parts):
            if self.tree[parts[:i]] is None:
                raise NotADirectory(name)
            if name not in self.tree[parts[:i]]:
                raise FileNotFound(name)
        if want_dir and self.tree[parts] is None:
            raise NotADirectory(str(parts))
        return parts

    def _make(self, path, node):
        parents, name = dirname_basename(path)
        parent = self._resolve(parents, want_dir=True)
        if name in self.tree[parent]:
            raise FileExists(path)
        self.tree[parent].add(name)
        self.tree[parent + (name,)] = node

    def create(self, path):
        self._make(path, None)

    def mkdir(self, path):
        self._make(path, set())

    def _remove(self, path, want_dir):
        parents, name = dirname_basename(path)
        parent = self._resolve(parents, want_dir=True)
        if name not in self.tree[parent]:
            raise FileNotFound(path)
        node = self.tree[parent + (name,)]
        if want_dir and node is None:
            raise NotADirectory(path)
        if want_dir and node:
            raise DirectoryNotEmpty(path)
        if not want_dir and node is not None:
            raise IsADirectory(path)
        self.tree[parent].remove(name)
        del self.tree[parent + (name,)]

    def unlink(self, path):
        self._remove(path, want_dir=False)

    def rmdir(self, path):
        self._remove(path, want_dir=True)

    def rename(self, old_path, new_path):
        (old_parents, old_name), (new_parents, new_name) = (
            dirname_basename(old_path), dirname_basename(new_path)
        )
        old = tuple(old_parents) + (old_name,)
        new = tuple(new_parents) + (new_name,)
        if new[: len(old)] == old and new != old:
            raise FileSystemError("into its own subtree")
        old_parent = self._resolve(old_parents, want_dir=True)
        if old_name not in self.tree[old_parent]:
            raise FileNotFound(old_path)
        new_parent = self._resolve(new_parents, want_dir=True)
        if new_name in self.tree[new_parent]:
            raise FileExists(new_path)
        self.tree[new_parent].add(new_name)
        self.tree[old_parent].remove(old_name)
        for key in [k for k in self.tree if k[: len(old)] == old]:
            self.tree[new + key[len(old):]] = self.tree.pop(key)

    def listdir(self, path):
        return sorted(self.tree[self._resolve(split_path(path), True)])

    def exists(self, path):
        try:
            self._resolve(split_path(path))
            return True
        except (FileNotFound, NotADirectory):
            return False

    def stat(self, path):
        """(is_dir, nlink): a directory has ``.``, its entry in the
        parent and one ``..`` per subdirectory."""
        parts = self._resolve(split_path(path))
        node = self.tree[parts]
        if node is None:
            return False, 1
        return True, 2 + sum(
            self.tree[parts + (name,)] is not None for name in node
        )


# ----------------------------------------------------------------------
# The script
# ----------------------------------------------------------------------

#: 202 bytes each as UTF-8: 19 entries fill a 4 KB directory block.
LONG = [f"長い名前-{i:02d}-" + "é" * 93 for i in range(24)]

ERROR_CASES = [
    # existing target
    ("create", "/d1/file"), ("mkdir", "/d1"), ("create", "/d1"),
    ("rename", "/d1/file", "/d1/d2/файл"), ("rename", "/d1/file", "/d1"),
    ("rename", "/d1/file", "/d1/file"),
    # missing source, missing parent
    ("unlink", "/d1/ghost"), ("rmdir", "/ghost"), ("stat", "/d1/ghost"),
    ("rename", "/ghost", "/x"), ("rename", "/d1/file", "/ghost/x"),
    ("create", "/ghost/x"), ("mkdir", "/ghost/d/e"), ("listdir", "/ghost"),
    # a regular file as the parent
    ("create", "/d1/file/x"), ("mkdir", "/d1/file/x"),
    ("unlink", "/d1/file/x"), ("rmdir", "/d1/file/x"),
    ("rename", "/d1/file/x", "/y"), ("rename", "/d1/d2/файл", "/d1/file/x"),
    ("stat", "/d1/file/x"), ("listdir", "/d1/file"), ("exists", "/d1/file/x"),
    ("unlink", "/d1/file/x/y"),
    # the wrong kind of operand
    ("rmdir", "/d1"), ("rmdir", "/d1/d2"), ("unlink", "/d1/d2"),
    ("rmdir", "/d1/file"),
    # the root, relative paths, names that are not names
    ("create", "/"), ("mkdir", "/"), ("unlink", "/"), ("rmdir", "/"),
    ("rename", "/", "/x"), ("rename", "/d1", "/"), ("create", "d1/x"),
    ("mkdir", "/d1/.."), ("exists", "relative"), ("create", "/" + "n" * 256),
    # a directory into its own subtree
    ("rename", "/d1", "/d1/d2/inside"), ("rename", "/d1/d2", "/d1/d2/d3/x"),
    ("rename", "/ghost", "/ghost/x"),
]


def script(seed=19):
    rng = random.Random(seed)
    yield from [
        ("mkdir", "/d1"), ("mkdir", "/d1/d2"), ("mkdir", "/d1/d2/d3"),
        ("create", "/d1/file"), ("create", "/d1/d2/файл"),
        ("create", "/d1/d2/d3/深い"), ("mkdir", "/big"),
    ]
    yield from ERROR_CASES
    # A directory grown past one block ...
    for name in LONG:
        yield "create", f"/big/{name}"
    yield "rmdir", "/big"
    yield "rename", f"/big/{LONG[3]}", f"/big/{LONG[20]}"  # in the 2nd block
    yield "rename", f"/big/{LONG[3]}", "/big/short"
    yield "rename", f"/big/{LONG[22]}", "/d1/d2/d3/moved-out"
    # ... random churn over three levels while it is large ...  File and
    # directory names are disjoint: a file moves among files, a directory
    # among directories, anywhere in the tree.
    dirs = ["", "/d1", "/d1/d2", "/d1/d2/d3", "/e", "/e/f"]
    files = ["a", "ü", "файл"]
    subdirs = ["sub", "renamed"]

    def any_path():
        return rng.choice(
            dirs[1:] + [f"{rng.choice(dirs)}/{rng.choice(files + subdirs)}"]
        )

    for _ in range(300):
        op = rng.choice(
            ["create"] * 5 + ["mkdir"] * 3 + ["unlink"] * 2 + ["rmdir"] * 2
            + ["rename"] * 5 + ["stat", "listdir", "exists"]
        )
        if op == "create":
            yield op, f"{rng.choice(dirs)}/{rng.choice(files)}"
        elif op == "mkdir":
            yield op, rng.choice(
                dirs[1:] + [f"{rng.choice(dirs)}/{rng.choice(subdirs)}"]
            )
        elif op != "rename":
            yield op, any_path()
        elif rng.random() < 0.6:
            yield (
                op,
                f"{rng.choice(dirs)}/{rng.choice(files)}",
                f"{rng.choice(dirs)}/{rng.choice(files)}",
            )
        else:
            old = rng.choice(
                dirs[1:] + [f"{rng.choice(dirs)}/{rng.choice(subdirs)}"]
            )
            yield op, old, f"{rng.choice(dirs)}/{rng.choice(subdirs)}"
    # ... and emptied again.
    for name in rng.sample(LONG, len(LONG)):
        yield "unlink", f"/big/{name}"
    yield "unlink", "/big/short"
    yield "listdir", "/big"
    yield "rmdir", "/big"
    yield "exists", "/big"


def outcome(target, op, *args):
    """(exception type or None, what the call returned if it reports)."""
    try:
        result = getattr(target, op)(*args)
    except FileSystemError as exc:
        return type(exc), None
    if isinstance(result, FileStat):
        result = (result.is_dir, result.nlink)
    return None, result if op in ("stat", "listdir", "exists") else None


def assert_same_tree(fs, model, context):
    for parts, node in model.tree.items():
        path = "/" + "/".join(parts)
        assert fs.exists(path), (context, path)
        stat = fs.stat(path)
        assert (stat.is_dir, stat.nlink) == model.stat(path), (context, path)
        if node is not None:
            assert fs.listdir(path) == sorted(node), (context, path)


def remount(fs):
    """Bring the file system back from what is on its disk."""
    fs.sync()
    fs.crash()
    fs.recover()


@pytest.mark.parametrize("kind", ["ufs", "lfs", "vlfs"])
def test_namespace_agrees_with_the_model_call_for_call(kind):
    fs, model = build(kind), Model()
    seen = set()
    big_blocks = 0
    for step, (op, *args) in enumerate(script()):
        expected = outcome(model, op, *args)
        assert outcome(fs, op, *args) == expected, (step, op, args)
        seen.add((op, expected[0]))
        assert_same_tree(fs, model, (step, op, args))
        if model.exists("/big"):
            big_blocks = max(big_blocks, fs.stat("/big").blocks)
    assert step >= 400
    assert big_blocks == 2 and not model.exists("/big")
    # Every call succeeded, and failed in each way it can, at least once.
    for op, errors in {
        "create": (FileExists, FileNotFound, NotADirectory, FileSystemError),
        "mkdir": (FileExists, FileNotFound, NotADirectory, FileSystemError),
        "unlink": (FileNotFound, NotADirectory, IsADirectory, FileSystemError),
        "rmdir": (
            FileNotFound, NotADirectory, DirectoryNotEmpty, FileSystemError
        ),
        "rename": (FileExists, FileNotFound, NotADirectory, FileSystemError),
        "stat": (FileNotFound, NotADirectory),
        "listdir": (FileNotFound, NotADirectory),
        "exists": (FileSystemError,),
    }.items():
        for error in (None,) + errors:
            assert (op, error) in seen, (op, error)
    assert len(model.tree) > 12  # a tree worth remounting
    remount(fs)
    assert_same_tree(fs, model, "after remount")
    if isinstance(fs, UFS):
        report = fsck(fs)
        assert report.ok, report.errors
