"""Every package's export table resolves.

Package ``__init__``s export lazily (``repro/_lazy.py``): a name in
``__all__`` is imported on its first lookup, so a typo in a table shows
up only when something asks for that name.  These tests ask for all of
them, in every package, and pin the one thing the laziness is for: a
bare ``import repro`` loads no subpackage.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

PACKAGES = sorted(
    ".".join(path.parent.relative_to(SRC).parts)
    for path in (SRC / "repro").rglob("__init__.py")
)


def run_fresh(code):
    """Run ``code`` in a new interpreter that sees only ``src/``."""
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        check=True,
    )
    return done.stdout


def test_every_package_is_listed():
    assert "repro" in PACKAGES
    assert "repro.vlog.resilience" in PACKAGES


@pytest.mark.parametrize("name", PACKAGES)
class TestExportTable:
    def test_every_name_resolves_and_is_listed_by_dir(self, name):
        package = importlib.import_module(name)
        listed = dir(package)
        for export in package.__all__:
            assert getattr(package, export) is not None, export
            assert export in listed, export

    def test_a_resolved_name_is_cached_in_the_globals(self, name):
        package = importlib.import_module(name)
        for export in package.__all__:
            value = getattr(package, export)
            assert vars(package)[export] is value, export

    def test_star_import_binds_every_name(self, name):
        namespace = {}
        exec(f"from {name} import *", namespace)
        package = importlib.import_module(name)
        for export in package.__all__:
            assert namespace[export] is getattr(package, export), export

    def test_an_unknown_name_is_an_attribute_error(self, name):
        package = importlib.import_module(name)
        assert not hasattr(package, "no_such_export")
        assert not hasattr(package, "__no_such_dunder__")


def test_import_repro_loads_no_subpackage():
    loaded = run_fresh(
        "import sys, repro\n"
        "print(sorted(m for m in sys.modules if m.startswith('repro')))"
    )
    assert loaded.strip() == "['repro', 'repro._lazy']"


def test_a_bare_package_resolves_its_submodules():
    out = run_fresh(
        "import repro.vlog\n"
        "print(repro.vlog.recovery.__name__, repro.harness.experiments.__name__)"
    )
    assert out.split() == ["repro.vlog.recovery", "repro.harness.experiments"]
