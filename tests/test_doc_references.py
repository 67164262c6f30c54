"""Every code reference in the documents resolves.

DESIGN.md, README.md, EXPERIMENTS.md and the verify skill name code in
backticks, in three forms, and each must name something that exists:

* a path ending in ``.py``, optionally with ``::Name.member`` (a pytest
  id or a definition): the file is found from the repository root,
  ``src/repro`` or ``src``, or by its base name when the document gives
  no directory; the name is found with ``ast``;
* a dotted ``repro.*`` name (``repro.x.y:attr`` too): ``importlib``
  imports its longest module prefix and the rest is looked up on it;
* ``Class.member`` for a class defined in ``src/repro``: the class, or
  one of its bases, defines the member or assigns ``self.member``.

So a document cannot go on naming a function after it is deleted or
renamed.  ROADMAP.md is exempt: it names things that do not exist yet.
"""

import ast
import builtins
import importlib
import re
from functools import lru_cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DOCUMENTS = ("DESIGN.md", "README.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md")

_FENCE = re.compile(r"```.*?```", re.S)
_SPAN = re.compile(r"`([^`\n]+)`")
_PATH = re.compile(r"(?<![\w./-])([\w./-]*\w\.py)(?:::([\w.]+(?:::[\w.]+)*))?")
_DOTTED = re.compile(r"(?<![\w.])(repro(?:\.\w+)+)(?::(\w+))?")
_MEMBER = re.compile(r"(?<![\w.])([A-Z]\w*)\.(\w+)")

PY_FILES = sorted(
    path.relative_to(ROOT).as_posix()
    for top in ("src", "tests", "benchmarks", "examples")
    for path in (ROOT / top).rglob("*.py")
)


@lru_cache(maxsize=None)
def _tree(path):
    return ast.parse((ROOT / path).read_text())


def _names(body):
    """Name -> defining node for one module or class body."""
    names = {}
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for leaf in ast.walk(target):
                    if isinstance(leaf, ast.Name):
                        names[leaf.id] = node
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names[(alias.asname or alias.name).split(".")[0]] = node
        elif isinstance(node, (ast.If, ast.Try)):
            names.update(_names(node.body))
    return names


def _self_attributes(cls):
    return {
        node.attr
        for node in ast.walk(cls)
        if isinstance(node, ast.Attribute)
        and isinstance(node.ctx, ast.Store)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    }


@lru_cache(maxsize=None)
def _classes():
    """Class name -> its ``ClassDef`` nodes, over ``src/repro``."""
    table = {}
    for path in PY_FILES:
        if path.startswith("src/repro/"):
            for node in ast.walk(_tree(path)):
                if isinstance(node, ast.ClassDef):
                    table.setdefault(node.name, []).append(node)
    return table


def _class_has(cls, member, seen=()):
    if member in _names(cls.body) or member in _self_attributes(cls):
        return True
    for base in cls.bases:
        name = base.id if isinstance(base, ast.Name) else getattr(base, "attr", None)
        if name in seen:
            continue
        if hasattr(builtins, name or "") and hasattr(getattr(builtins, name), member):
            return True
        if any(_class_has(node, member, seen + (name,)) for node in _classes().get(name, ())):
            return True
    return False


def _member_resolves(class_name, member):
    return any(_class_has(node, member) for node in _classes().get(class_name, ()))


def _defines(path, dotted):
    """``path`` defines ``Name.member...`` (a pytest id or a definition)."""
    body, node = _tree(path).body, None
    for part in dotted.replace("::", ".").split("."):
        found = _names(body).get(part)
        if found is None:
            return isinstance(node, ast.ClassDef) and _class_has(node, part)
        node, body = found, getattr(found, "body", [])
    return True


def _candidates(path):
    for base in ("", "src/repro/", "src/"):
        if (ROOT / (base + path)).is_file():
            return [base + path]
    return [p for p in PY_FILES if ("/" + p).endswith("/" + path)]


def _dotted_resolves(name):
    parts = name.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for index, attribute in enumerate(parts[cut:], start=cut):
            if hasattr(obj, attribute):
                obj = getattr(obj, attribute)
                continue
            # An instance attribute: the class assigns it.
            return (
                index == len(parts) - 1
                and isinstance(obj, type)
                and _member_resolves(obj.__name__, attribute)
            )
        return True
    return False


def references(text):
    """``(kind, reference, resolves)`` for each reference in a document."""
    for span in _SPAN.findall(_FENCE.sub("", text)):
        for match in _PATH.finditer(span):
            path, name = match.groups()
            found = _candidates(path)
            ok = bool(found) and (not name or any(_defines(p, name) for p in found))
            yield "path", match.group(0), ok
        for match in _DOTTED.finditer(span):
            name = ".".join(part for part in match.groups() if part)
            yield "dotted", name, _dotted_resolves(name)
        for match in _MEMBER.finditer(span):
            if match.group(1) in _classes():
                yield "member", match.group(0), _member_resolves(*match.groups())


@pytest.mark.parametrize("document", DOCUMENTS)
def test_every_reference_resolves(document):
    found = list(references((ROOT / document).read_text()))
    assert found, f"{document} names no code: the patterns no longer match it"
    broken = sorted({f"{kind}: {ref}" for kind, ref, ok in found if not ok})
    assert broken == [], f"{document} names code that does not exist:\n" + "\n".join(broken)


@pytest.mark.parametrize(
    "text",
    [
        "`MapRecord.pack`",
        "`vlog/entries.py::MapRecord.pack`",
        "`repro.harness.report.series_to_csv`",
        "`repro.sim.engine.IntervalRecorder.note`",
        "`src/repro/harness/nosuch.py`",
    ],
)
def test_a_deleted_name_does_not_resolve(text):
    results = [ok for _, _, ok in references(text)]
    assert results and not any(results)


@pytest.mark.parametrize(
    "text",
    [
        "`MapRecord.unpack`",
        "`vlog/entries.py::MapRecord.chunk_id`",
        "`tests/sim/test_stats.py::TestLatencyRecorder::test_mean_over_records`",
        "`repro.sim.clock.SimClock.now`",
        "`registry.py`",
    ],
)
def test_a_live_name_resolves(text):
    results = [ok for _, _, ok in references(text)]
    assert results and all(results)


_PR_NUMBER = re.compile(r"\bPRs? ?\d")
_HEADING = re.compile(r"^## (\d+)\. ", re.M)
_CITATION = re.compile(
    r"DESIGN\.md`?\s+(?:[Ss]ections?\s+|§)(\d+(?:\s*(?:,|-|–|and)\s*§?\d+)*)"
)
_COMMENT_BREAK = re.compile(r"\s*\n\s*(?:#\s*)?")


def test_design_names_no_pr_number():
    """DESIGN.md says what the code does; its history is CHANGES.md's."""
    lines = (ROOT / "DESIGN.md").read_text().splitlines()
    cited = [f"{n}: {line}" for n, line in enumerate(lines, 1) if _PR_NUMBER.search(line)]
    assert cited == [], "DESIGN.md cites a PR:\n" + "\n".join(cited)


def test_every_section_citation_names_a_heading():
    """A "DESIGN.md section N" or "DESIGN.md §N" anywhere in the code or
    the checked documents names one of DESIGN.md's ``## N.`` headings."""
    sections = set(_HEADING.findall((ROOT / "DESIGN.md").read_text()))
    cited = [*PY_FILES, *DOCUMENTS]
    found, broken = 0, []
    for path in cited:
        text = _COMMENT_BREAK.sub(" ", (ROOT / path).read_text())
        for match in _CITATION.finditer(text):
            for number in re.findall(r"\d+", match.group(1)):
                found += 1
                if number not in sections:
                    broken.append(f"{path}: {match.group(0)}")
    assert found, "no citation matched: the pattern no longer fits the sources"
    assert broken == [], "citations of a missing section:\n" + "\n".join(broken)
