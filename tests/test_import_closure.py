"""Import closures follow the layer order (DESIGN.md section 3).

A module imports only the layers below it, and a package ``__init__``
imports nothing until a name is asked for, so importing a low layer
loads no higher one.  Each case imports one module in a new interpreter
and reads ``sys.modules``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

#: ``repro`` itself: the top package and its lazy-export helper.
TOP = {"repro", "repro._lazy"}

#: Everything that sits above the virtual log and the NVM tier.
ABOVE_DEVICES = (
    "repro.fs", "repro.ufs", "repro.lfs", "repro.vlfs", "repro.harness",
    "repro.hosts", "repro.volume", "repro.workloads", "repro.models",
)


def loaded_by(module):
    """The ``repro`` modules a new interpreter holds after importing
    ``module``."""
    done = subprocess.run(
        [
            sys.executable, "-c",
            f"import sys, {module}\n"
            "print('\\n'.join(m for m in sys.modules if m.startswith('repro')))",
        ],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        check=True,
    )
    return set(done.stdout.split())


def within(name, packages):
    return any(name == p or name.startswith(p + ".") for p in packages)


def test_the_disk_loads_only_the_disk_and_the_clock():
    loaded = loaded_by("repro.disk.disk")
    assert "repro.disk.disk" in loaded
    assert {
        name for name in loaded - TOP
        if not within(name, ("repro.disk", "repro.sim"))
    } == set()


@pytest.mark.parametrize("module", ["repro.vlog.vld", "repro.nvm.wal"])
def test_the_devices_load_nothing_above_them(module):
    loaded = loaded_by(module)
    assert module in loaded
    assert {name for name in loaded if within(name, ABOVE_DEVICES)} == set()


def test_the_stack_builder_loads_no_file_system_and_no_experiment():
    loaded = loaded_by("repro.harness.configs")
    assert "repro.harness.configs" in loaded
    assert {
        name for name in loaded
        if within(name, (
            "repro.ufs", "repro.lfs", "repro.vlfs",
            "repro.harness.experiments", "repro.harness.sweep",
        ))
    } == set()


def test_the_registry_loads_no_experiment():
    """Listing the records (``--list``, ``--help``) runs no experiment,
    so it loads none of their code."""
    loaded = loaded_by("repro.harness.registry")
    assert "repro.harness.registry" in loaded
    assert {
        name for name in loaded
        if within(name, (
            "repro.harness.experiments", "repro.models", "repro.workloads",
            "repro.hosts.multihost", "repro.nvm",
        ))
    } == set()
