"""Every name a package module or script imports is used in that file, and
every function, class and method the package defines is read by program
code, not only by tests."""
from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted(ROOT.glob("src/cpsdetect/*.py"))
SOURCES = sorted([*PACKAGE, *ROOT.glob("scripts/*.py")])
# Program code: the package, the scripts and the benchmark harness, whose
# own tests are left out.
READERS = sorted([*SOURCES, *(path for path in ROOT.glob("perfbench/*.py")
                              if not path.name.startswith("test_"))])
# Definitions that no program code reads, each with the reason it stays.
UNREAD_ALLOWED = {"TemporalEncoder.attention_weights": "ROADMAP item 4"}
DOTTED_NAME = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*")


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's imports that nothing in it reads.

    A name counts as read when it is loaded anywhere (an attribute chain
    reads its root name) or listed in ``__all__``; ``from __future__``
    imports bind nothing.
    """
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            read.update(elt.value for elt in ast.walk(node.value)
                        if isinstance(elt, ast.Constant))
    return [f"line {line}: {name}" for name, line in sorted(
        imported.items(), key=lambda item: item[1]) if name not in read]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def read_names(tree: ast.AST) -> Counter[str]:
    """How often the tree reads each name: loaded names, attribute names,
    and each part of a string that is a dotted name, as a tracer or
    ``getattr`` names an attribute (``"VgaeEncoder.encode"``)."""
    names: Counter[str] = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and DOTTED_NAME.fullmatch(node.value)):
            names.update(node.value.split("."))
    return names


def unread_definitions(modules: list[str], readers: list[str]) -> list[str]:
    """Qualified names of the functions, classes and methods defined in
    ``modules`` whose name ``readers`` read nowhere outside the definition
    itself. The check goes by name: any read of ``encode`` counts for
    every ``encode``. Dunder methods are called by Python, not by name."""
    read = Counter()
    for source in readers:
        read.update(read_names(ast.parse(source)))
    unread = []

    def visit(body, prefix):
        for node in body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                continue
            name = node.name
            dunder = name.startswith("__") and name.endswith("__")
            if not dunder and read[name] <= read_names(node)[name]:
                unread.append(prefix + name)
            if isinstance(node, ast.ClassDef):
                visit(node.body, f"{prefix}{name}.")

    for source in modules:
        visit(ast.parse(source).body, "")
    return unread


def test_every_definition_is_read_by_program_code():
    texts = {path: path.read_text(encoding="utf-8") for path in READERS}
    unread = unread_definitions([texts[path] for path in PACKAGE],
                                list(texts.values()))
    assert sorted(unread) == sorted(UNREAD_ALLOWED)


@pytest.mark.parametrize("module, reader, unread", [
    ("def f(): pass\ndef g(): f()\n", "", ["g"]),
    ("def f(): return f()\n", "", ["f"]),
    ("class A:\n    def m(self): pass\n    def __len__(self): return 0\n",
     "A().m\n", []),
    ("class A:\n    def m(self): pass\n", "wrap('A.m')\n", []),
    ("class A:\n    def m(self): pass\n", "print('call A.m')\n", ["A", "A.m"]),
])
def test_unread_definitions_finds_names_only_their_definition_reads(
        module, reader, unread):
    assert unread_definitions([module], [module, reader]) == unread


@pytest.mark.parametrize("source, unused", [
    ("import os\n", ["line 1: os"]),
    ("import os.path\nos.sep\n", []),
    ("from a import b as c\nb = 1\nprint(b)\n", ["line 1: c"]),
    ("from a import b\ndef f(x: b) -> None: pass\n", []),
    ("from a import b\n__all__ = ['b']\n", []),
    ("from __future__ import annotations\n", []),
])
def test_unused_imports_finds_only_unread_names(source, unused):
    assert unused_imports(source) == unused
