"""Training's one output is ``TrainedPipeline.record``: outside ``cli.py``
no package module prints, and no function takes a ``log`` callback."""
from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = sorted(path for path in ROOT.glob("src/cpsdetect/*.py")
                 if path.name != "cli.py")


def side_channels(source: str) -> list[str]:
    """Each ``print`` call and each parameter named ``log`` in ``source``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "print"):
            found.append(f"line {node.lineno}: print")
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                        args.vararg, args.kwarg):
                if arg is not None and arg.arg == "log":
                    found.append(f"line {node.lineno}: parameter log")
    return found


@pytest.mark.parametrize("path", LIBRARY, ids=lambda p: str(p.relative_to(ROOT)))
def test_library_module_has_no_side_channel(path):
    assert side_channels(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("source, found", [
    ("print('x')\n", ["line 1: print"]),
    ("def f(a, log=None):\n    pass\n", ["line 1: parameter log"]),
    ("def f(*, log):\n    pass\n", ["line 1: parameter log"]),
    ("g = lambda log: log\n", ["line 1: parameter log"]),
    ("import math\ndef f(x):\n    return math.log(x)\n", []),
    ("def f(out=print):\n    out('x')\n", []),
])
def test_side_channels_finds_prints_and_log_parameters(source, found):
    assert side_channels(source) == found
