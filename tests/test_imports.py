"""Every name a package module or script imports is used in that file,
every function, class and method the package defines is read by program
code, not only by tests, every parameter default it defines is left out
by some program call, a setting is refused only where it enters, and
windows are gathered in parts by one walk only."""
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
    assert unread_definitions([texts[path] for path in PACKAGE],
                              list(texts.values())) == []


# The modules that read settings: ``config``, which holds every settings
# object and its ``validate`` beside the config file and ``--set`` parser,
# the CLI and the checkpoint reader. No other module refuses a setting.
SETTING_READERS = {"config.py", "cli.py", "checkpoint.py"}


def misplaced_config_errors(source: str) -> list[int]:
    """Lines of the ``raise ConfigError`` statements, in whatever function
    they are."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            name = exc.attr if isinstance(exc, ast.Attribute) else getattr(exc, "id", "")
            if name == "ConfigError":
                lines.append(node.lineno)
    return sorted(lines)


def test_settings_are_refused_only_where_they_enter():
    assert [f"{path.name}:{line}" for path in PACKAGE
            if path.name not in SETTING_READERS
            for line in misplaced_config_errors(path.read_text(encoding="utf-8"))
            ] == []


@pytest.mark.parametrize("source, lines", [
    ("def f():\n    raise ConfigError('x')\n", [2]),
    ("def f():\n    raise errors.ConfigError\n", [2]),
    ("class A:\n    def validate(self):\n        raise ConfigError('x')\n", [3]),
    ("def validate():\n    def g():\n        raise ConfigError('x')\n", [3]),
    ("def f():\n    raise DataError('x')\n    raise\n", []),
    ("x = 1\nraise ConfigError('x')\n", [2]),
])
def test_misplaced_config_errors_finds_raises_outside_validate(source, lines):
    assert misplaced_config_errors(source) == lines


# The functions that walk a stream's windows in parts: the one walk that
# training, scoring and ``score --dump-graphs`` share, and the temporal fit,
# which gathers its pairs every epoch.
PART_WALKERS = {"pipeline.py": "segment_nodes", "temporal.py": "train_temporal"}
PART_WALK_CALLS = {"chunks", "gather_windows"}


def stray_part_walks(source: str, walker: str | None) -> list[int]:
    """Lines of the calls of ``chunks`` or ``gather_windows`` (``f(...)``
    or ``x.f(...)``) outside the function named ``walker``."""
    lines = []

    def visit(node: ast.AST, inside: bool) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inside = inside or node.name == walker
        elif isinstance(node, ast.Call) and not inside:
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
            if name in PART_WALK_CALLS:
                lines.append(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(ast.parse(source), False)
    return lines


def test_windows_are_walked_in_parts_only_by_the_part_walkers():
    assert [f"{path.name}:{line}" for path in PACKAGE
            for line in stray_part_walks(path.read_text(encoding="utf-8"),
                                         PART_WALKERS.get(path.name))] == []


@pytest.mark.parametrize("source, walker, lines", [
    ("def f():\n    for rows in chunks(9):\n        pass\n", None, [2]),
    ("def f():\n    ad.chunks(9)\n", "g", [2]),
    ("def f():\n    return data.gather_windows(v, s, 3)\n", None, [2]),
    ("x = chunks(3)\n", None, [1]),
    ("def g():\n    def epoch():\n        chunks(9)\n", "g", []),
    ("def g():\n    gather_windows(v, s, 3)\ndef f():\n    chunks(9)\n", "g", [4]),
    ("chunks = []\nchunks.append(b'')\n", None, []),
])
def test_stray_part_walks_finds_calls_outside_the_walker(source, walker, lines):
    assert stray_part_walks(source, walker) == lines


def calls_and_references(tree: ast.AST) -> tuple[list[tuple[str, ast.Call]],
                                                  set[str]]:
    """The tree's calls by the name they call (``f(...)`` and
    ``x.f(...)`` both call ``f``), and the names it reads otherwise: a
    loaded name or attribute that is not a call's function and not inside
    an annotation (``map(x.f, parts)`` references ``f``)."""
    skip: set[int] = set()  # the ids of nodes that are not references
    calls = []
    for node in ast.walk(tree):
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            annotations = [node.returns, *(arg.annotation for arg in (
                *a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg) if arg)]
        elif isinstance(node, ast.AnnAssign):
            annotations = [node.annotation]
        elif isinstance(node, ast.Call):
            skip.add(id(node.func))
            if isinstance(node.func, ast.Name):
                calls.append((node.func.id, node))
            elif isinstance(node.func, ast.Attribute):
                calls.append((node.func.attr, node))
        for annotation in filter(None, annotations):
            skip.update(map(id, ast.walk(annotation)))
    references = set()
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            references.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            references.add(node.attr)
    return calls, references


def unrelied_defaults(modules: list[str], readers: list[str]) -> list[str]:
    """``function(parameter)`` for each parameter default of a function or
    method defined in ``modules`` that no call in ``readers`` leaves out.

    A method's or ``__init__``'s first parameter is bound, and its class
    name calls ``__init__``; other dunder methods are called by Python.
    The check goes by name, as ``unread_definitions`` does: a call of
    ``encode`` that leaves out a parameter relies on that default of every
    ``encode``, and a call with ``*args`` or ``**kwargs``, or a read of the
    name that does not call it, relies on every default."""
    calls, references = [], set()
    for source in readers:
        found = calls_and_references(ast.parse(source))
        calls += found[0]
        references |= found[1]
    unrelied = []

    def check(node, name, label, bound):
        arguments = node.args
        positional = [*arguments.posonlyargs, *arguments.args][bound:]
        defaults = [arg.arg for arg in positional[len(positional)
                                                  - len(arguments.defaults):]]
        defaults += [arg.arg for arg, default in zip(arguments.kwonlyargs,
                                                     arguments.kw_defaults)
                     if default is not None]
        if not defaults or name in references:
            return
        order = [arg.arg for arg in positional]
        relied = set()
        for called, call in calls:
            if called != name:
                continue
            if (any(isinstance(arg, ast.Starred) for arg in call.args)
                    or any(keyword.arg is None for keyword in call.keywords)):
                return
            given = set(order[:len(call.args)])
            given.update(keyword.arg for keyword in call.keywords)
            relied.update(set(defaults) - given)
        unrelied.extend(f"{label}({arg})" for arg in defaults if arg not in relied)

    def visit(body, prefix, in_class):
        for node in body:
            if isinstance(node, ast.ClassDef):
                visit(node.body, f"{prefix}{node.name}.", node.name)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = node.name
                if name == "__init__" and in_class:
                    name = in_class
                elif name.startswith("__") and name.endswith("__"):
                    continue
                check(node, name, prefix + node.name, int(in_class is not None))

    for source in modules:
        visit(ast.parse(source).body, "", None)
    return unrelied


def test_every_parameter_default_is_relied_on_by_program_code():
    texts = {path: path.read_text(encoding="utf-8") for path in READERS}
    assert unrelied_defaults([texts[path] for path in PACKAGE],
                             list(texts.values())) == []


@pytest.mark.parametrize("module, reader, unrelied", [
    # Every call overrides the default.
    ("def f(a, b=1): pass\n", "f(0, 2)\nf(0, b=3)\n", ["f(b)"]),
    ("def f(a, *, k=1): pass\n", "f(0, k=2)\n", ["f(k)"]),
    ("def f(b=1): pass\n", "", ["f(b)"]),
    # One call that leaves it out, a *args or **kwargs call, or a read
    # that does not call the name relies on it.
    ("def f(a, b=1): pass\n", "f(0, 2)\nf(0)\n", []),
    ("def f(a, *, k=1): pass\n", "f(0)\n", []),
    ("def f(a, b=1): pass\n", "f(0, 2)\nf(*args)\n", []),
    ("def f(a, b=1): pass\n", "f(0, 2)\nf(0, **kwargs)\n", []),
    ("def f(a, b=1): pass\n", "f(0, 2)\nlist(map(f, [0]))\n", []),
    ("def f(a, b=1): pass\n", "f(0, 2)\nx.f\n", []),
    # A read inside an annotation does not.
    ("def f(a, b=1): pass\n", "f(0, 2)\ndef g(h: f) -> f: pass\nv: f = 0\n",
     ["f(b)"]),
    # Methods and __init__: the first parameter is bound; the class name
    # calls __init__.
    ("class A:\n    def m(self, b=1): pass\n", "A().m(2)\n", ["A.m(b)"]),
    ("class A:\n    def m(self, b=1): pass\n", "A().m()\n", []),
    ("class A:\n    def __init__(self, b=1): pass\n", "A(2)\n",
     ["A.__init__(b)"]),
    ("class A:\n    def __init__(self, b=1): pass\n", "A()\n", []),
    # The check goes by name: any call of `m` relies for every `m`.
    ("class A:\n    def m(self, b=1): pass\n", "A().m(2)\nB().m()\n", []),
])
def test_unrelied_defaults_finds_defaults_every_call_overrides(
        module, reader, unrelied):
    assert unrelied_defaults([module], [module, reader]) == unrelied


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
