"""The namespace is one implementation, and the ledger can still see it.

Two structural guards around ``repro.fs.namespace``:

* the performance ledger patches every traced method through
  ``cls.__dict__[method]`` (``benchmarks/ledger/spans.py::Tracer.install``
  and ``benchmarks/ledger/test_ledger.py``), and tier-1 does not collect
  that directory -- so a traced method that is merely *inherited* passes
  every test here and kills the traced pass of ``fs_small_files`` with a
  ``KeyError``.  This is the local test that says what CI's ledger step
  would;
* path resolution, the directory-file protocol and the eight namespace
  calls exist once.  The twin of "three copies of the slot arithmetic may
  not drift" (``tests/disk/test_batch_mechanics.py``): the day a second
  copy reappears on UFS, LFS or VLFS, the function objects differ.
"""

from __future__ import annotations

import pytest

from repro.fs.namespace import InodeNamespace
from repro.lfs.lfs import LFS
from repro.ufs.ufs import UFS
from repro.vlfs.vlfs import VLFS

#: the ``ufs`` and ``lfs`` rows of ``benchmarks/ledger/spans.py::LAYER_MAP``.
LEDGER_TRACED = (
    "create",
    "unlink",
    "write",
    "read",
    "fsync",
    "sync",
    "drop_caches",
    "idle",
)

SHARED = (
    "_namei",
    "_dir_lookup",
    "_dir_add",
    "_dir_remove",
    "mkdir",
    "rmdir",
    "rename",
    "stat",
    "listdir",
    "exists",
    "create",
    "unlink",
)


@pytest.mark.parametrize("cls", [UFS, LFS], ids=["UFS", "LFS"])
@pytest.mark.parametrize("method", LEDGER_TRACED)
def test_ledger_traced_methods_are_class_dict_entries(cls, method):
    assert method in cls.__dict__, (
        f"{cls.__name__}.{method} is not in the class body: the ledger's "
        "Tracer.install() would raise KeyError"
    )


@pytest.mark.parametrize("cls", [UFS, LFS, VLFS], ids=["UFS", "LFS", "VLFS"])
@pytest.mark.parametrize("method", SHARED)
def test_namespace_methods_are_one_function_object(cls, method):
    assert getattr(cls, method) is InodeNamespace.__dict__[method]
