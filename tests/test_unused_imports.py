"""Every import in ``src/repro`` is used in the module that makes it.

No linter ships with the project, so this stdlib-``ast`` scan stands in
for one: a name an import binds and the module never references fails.
``__init__.py`` files are skipped, since their imports are re-exports.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def _annotations(tree):
    """Every annotation expression in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]:
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _referenced(tree):
    """Names the module reads, string annotations included."""
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    parsed = ast.parse(node.value, mode="eval")
                except SyntaxError:
                    continue
                names.update(n.id for n in ast.walk(parsed) if isinstance(n, ast.Name))
    return names


def unused_imports(source):
    """``(line, name)`` of every imported name ``source`` never references."""
    tree = ast.parse(source)
    referenced = _referenced(tree)
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in referenced:
                    unused.append((node.lineno, bound))
    return sorted(unused)


def test_scanner_finds_what_it_should():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from typing import List, Optional, Tuple\n"
        "from .x import Late\n"
        "def f(a: List[int]) -> 'Late':\n"
        "    return os.path.join('a')\n"
    )
    assert unused_imports(source) == [(3, "np"), (4, "Optional"), (4, "Tuple")]


def test_every_import_in_src_is_used():
    modules = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")
    assert modules, f"no modules under {SRC}"
    found = [
        f"{path.relative_to(SRC)}:{line} {name}"
        for path in modules
        for line, name in unused_imports(path.read_text())
    ]
    assert found == []
