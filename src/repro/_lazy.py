"""Lazy package exports: a package loads a submodule the first time one
of its names is looked up, not when the package itself is imported.

Every package ``__init__`` states its re-exports once, as the ``from
module import name`` statements of one ``if TYPE_CHECKING:`` block --
ordinary imports to a type checker or an editor, skipped at run time --
and ends with::

    __getattr__, __dir__ = lazy_exports(__name__)

:func:`lazy_exports` reads that block from the package's source and
returns the package's module ``__getattr__`` and ``__dir__`` (PEP 562).
So ``import repro.vlog.vld`` runs the ``__init__`` of ``repro`` and of
``repro.vlog`` without loading a file system, the harness, or anything
else that ``vld`` does not import itself (DESIGN.md section 3, "The
import rule"), while ``from repro import Disk``, ``from repro.vlog
import *`` and ``dir(repro)`` work as they would with eager imports.
"""

from __future__ import annotations

import ast
import importlib
import sys
from typing import Callable, Dict, List, Tuple


def _exports_of(package: str, path: str) -> Dict[str, Tuple[str, str]]:
    """``{name: (module, attribute)}`` for the ``from module import
    attribute [as name]`` statements of the top-level ``if
    TYPE_CHECKING:`` block of the source at ``path``.  A statement that
    imports a submodule from ``package`` itself adds nothing: a miss
    imports submodules anyway."""
    with open(path, encoding="utf-8") as source:
        lines = source.read().splitlines()
    # Parse the block alone: the rest of an __init__ is a docstring, or in
    # vlog.resilience a whole class, and would cost more than the block.
    start = lines.index("if TYPE_CHECKING:") + 1
    end = start
    while end < len(lines) and (not lines[end] or lines[end][0] == " "):
        end += 1
    block = "\n".join(line[4:] for line in lines[start:end])
    exports: Dict[str, Tuple[str, str]] = {}
    for statement in ast.parse(block, path).body:
        if not isinstance(statement, ast.ImportFrom) or statement.level:
            raise ImportError(
                f"{path}: the TYPE_CHECKING block of a package lists only "
                f"absolute 'from ... import' lines"
            )
        if statement.module == package:
            continue
        for alias in statement.names:
            exports[alias.asname or alias.name] = (statement.module, alias.name)
    return exports


def lazy_exports(
    package: str,
) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """Return ``(__getattr__, __dir__)`` for the package named
    ``package``, whose ``__init__`` is executing.

    ``__getattr__`` imports a listed name's module on the first lookup
    and binds the name in the package's globals, so it never runs twice
    for one name.  A name the block does not list is tried as a
    submodule, so ``repro.vlog.recovery`` resolves after a bare ``import
    repro.vlog``.
    """
    module = sys.modules[package]
    exports = _exports_of(package, module.__file__)

    def __getattr__(name: str) -> object:
        if name in exports:
            source, attribute = exports[name]
            value = getattr(importlib.import_module(source), attribute)
        else:
            submodule = f"{package}.{name}"
            try:
                value = importlib.import_module(submodule)
            except ModuleNotFoundError as error:
                if error.name != submodule:
                    raise
                raise AttributeError(
                    f"module {package!r} has no attribute {name!r}"
                ) from None
        setattr(module, name, value)
        return value

    def __dir__() -> List[str]:
        public = getattr(module, "__all__", ())
        return sorted(set(vars(module)) | set(exports) | set(public))

    return __getattr__, __dir__
