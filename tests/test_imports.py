"""Every name a package module or script imports is used in that file."""
from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted([*ROOT.glob("src/cpsdetect/*.py"), *ROOT.glob("scripts/*.py")])


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
