"""A lint floor that needs nothing but the standard library.

CI lints with ruff (``pyproject.toml``: ``line-length = 100``, rules E,
F and W, F401 off for ``__init__.py``).  These tests repeat three of its
checks with ``ast`` and ``tokenize`` over ``src/``, ``tests/`` and
``benchmarks/``, so a machine without ruff still catches them before CI
does:

* E501 -- a line over 100 columns;
* W291/W293 -- trailing whitespace, on a code or a blank line;
* F401 -- a module-level import that the module never uses, outside
  ``__init__.py``.  ``import x as x`` and a name listed in ``__all__``
  count as re-exports, and a name used only inside a string annotation
  counts as used.

A line carrying a ``# noqa`` comment is skipped, as ruff skips it.
"""

import ast
import io
import tokenize
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
LINE_LENGTH = 100

FILES = sorted(
    path
    for top in ("src", "tests", "benchmarks")
    for path in (ROOT / top).rglob("*.py")
)


def noqa_lines(source):
    """Line numbers whose comment says ``noqa``."""
    return {
        token.start[0]
        for token in tokenize.generate_tokens(io.StringIO(source).readline)
        if token.type == tokenize.COMMENT and "noqa" in token.string
    }


def module_imports(tree):
    """``(line, bound name, alias)`` for every import executed at module
    level, including inside a top-level ``if`` or ``try``."""
    pending = list(tree.body)
    while pending:
        node = pending.pop(0)
        if isinstance(node, (ast.If, ast.Try)):
            pending.extend(node.body + node.orelse)
            pending.extend(getattr(node, "finalbody", []))
            for handler in getattr(node, "handlers", []):
                pending.extend(handler.body)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                yield getattr(alias, "lineno", node.lineno), bound, alias
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound = alias.asname or alias.name
                yield getattr(alias, "lineno", node.lineno), bound, alias


def used_names(tree):
    """Every name the module loads, including those inside string
    annotations and those listed in ``__all__``."""
    used = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.returns is not None:
                annotations.append(node.returns)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            used.update(
                element.value
                for element in ast.walk(node.value)
                if isinstance(element, ast.Constant)
            )
    for annotation in annotations:
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    expression = ast.parse(node.value, mode="eval")
                except SyntaxError:  # a Literal["..."] value, not a type
                    continue
                used.update(
                    name.id
                    for name in ast.walk(expression)
                    if isinstance(name, ast.Name)
                )
    return used


def _relative(path):
    return path.relative_to(ROOT).as_posix()


def test_the_floor_sees_both_trees():
    names = {_relative(path) for path in FILES}
    assert "src/repro/vlog/vld.py" in names
    assert "tests/test_lint_floor.py" in names
    assert "benchmarks/conftest.py" in names


@pytest.mark.parametrize("path", FILES, ids=_relative)
def test_lint_floor(path):
    source = path.read_text(encoding="utf-8")
    skip = noqa_lines(source)
    problems = []
    for number, line in enumerate(source.splitlines(), start=1):
        if number in skip:
            continue
        if len(line) > LINE_LENGTH:
            problems.append(f"{number}: E501 line is {len(line)} columns")
        if not line.strip() and line:
            problems.append(f"{number}: W293 whitespace on a blank line")
        elif line != line.rstrip():
            problems.append(f"{number}: W291 trailing whitespace")
    if path.name != "__init__.py":
        tree = ast.parse(source, str(path))
        used = used_names(tree)
        for number, bound, alias in module_imports(tree):
            reexport = alias.asname is not None and alias.asname == alias.name
            if bound not in used and not reexport and number not in skip:
                problems.append(f"{number}: F401 {bound!r} imported but unused")
    assert problems == [], f"{_relative(path)}:\n" + "\n".join(problems)
