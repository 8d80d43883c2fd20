"""Static checks over the package source: no module-level import or private definition goes unused."""
import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "fraudring"


def _annotation_names(node):
    """Names inside string annotations such as -> "GeniePathParams"."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            return {n.id for n in ast.walk(ast.parse(node.value, mode="eval")) if isinstance(n, ast.Name)}
        except SyntaxError:
            return set()
    return set()


def unused_imports(source: str) -> list[str]:
    """Module-level imported names that the module never reads nor lists in __all__."""
    tree = ast.parse(source)
    imported = {}
    for stmt in tree.body:
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                imported[alias.asname or alias.name.split(".")[0]] = stmt.lineno
        elif isinstance(stmt, ast.ImportFrom) and stmt.module != "__future__":
            for alias in stmt.names:
                imported[alias.asname or alias.name] = stmt.lineno

    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            used |= _annotation_names(node.returns)
        elif isinstance(node, ast.arg):
            used |= _annotation_names(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            used |= _annotation_names(node.annotation)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items()) if name not in used]


def test_checker_flags_only_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import os, sys\n"
        "import numpy as np\n"
        "from typing import Mapping, Sequence\n"
        "from .graph import Graph, prune\n"
        "__all__ = ['prune']\n"
        "def f(x: Mapping) -> 'Graph':\n"
        "    return np.zeros(os.cpu_count())\n"
    )
    assert unused_imports(source) == ["Sequence (line 4)", "sys (line 2)"]


@pytest.mark.parametrize("path", sorted(SRC.rglob("*.py")), ids=lambda p: str(p.relative_to(SRC)))
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def _referenced_names(node):
    """Every name a syntax tree reads: bare, attribute, imported alias or inside a string annotation."""
    names = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            names.add(n.id)
        elif isinstance(n, ast.Attribute):
            names.add(n.attr)
        elif isinstance(n, ast.alias):
            names.add(n.name)
        elif isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names |= _annotation_names(n.returns)
        elif isinstance(n, (ast.arg, ast.AnnAssign)):
            names |= _annotation_names(n.annotation)
    return names


def unreferenced_private_defs(sources: dict) -> list:
    """Module-level private functions and classes that no other statement in any source names."""
    statements = [(path, stmt) for path, text in sources.items() for stmt in ast.parse(text).body]
    refs = [_referenced_names(stmt) for _, stmt in statements]
    unused = []
    for i, (path, stmt) in enumerate(statements):
        if (
            isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and stmt.name.startswith("_")
            and not stmt.name.startswith("__")
            and not any(stmt.name in names for j, names in enumerate(refs) if j != i)
        ):
            unused.append(f"{path}: {stmt.name} (line {stmt.lineno})")
    return unused


def test_private_checker_flags_only_unreferenced_defs():
    sources = {
        "a.py": (
            "def _local(): pass\n"
            "def _shared(): pass\n"
            "def _dead(): pass\n"
            "def _recursive(n): return _recursive(n - 1)\n"
            "class _Gone: pass\n"
            "class _Held: pass\n"
            "def __getattr__(name): pass\n"
            "def public(x: '_Held'): return _local()\n"
        ),
        "b.py": "from .a import _shared\nVALUE = _shared\n",
    }
    assert unreferenced_private_defs(sources) == [
        "a.py: _dead (line 3)",
        "a.py: _recursive (line 4)",
        "a.py: _Gone (line 5)",
    ]


def test_no_unreferenced_private_defs():
    sources = {str(p.relative_to(SRC)): p.read_text(encoding="utf-8") for p in sorted(SRC.rglob("*.py"))}
    assert unreferenced_private_defs(sources) == []
