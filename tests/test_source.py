"""Static checks over the package source.

No module-level import, private definition or public method goes unused, no
module imports another module's private name, no code splits text with
str.splitlines, and every file the package writes is opened by textio.open_new.
"""
import ast
import pathlib
from collections import Counter

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


def _name_references(node):
    """Every name a syntax tree reads, once per reference: bare, attribute, imported alias or inside a string annotation."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr
        elif isinstance(n, ast.alias):
            yield n.name
        elif isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _annotation_names(n.returns)
        elif isinstance(n, (ast.arg, ast.AnnAssign)):
            yield from _annotation_names(n.annotation)


def _referenced_names(node):
    return set(_name_references(node))


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


def private_imports(source: str) -> list[str]:
    """Single-underscore names imported from a module of the package (a relative import, at any depth)."""
    return [
        f"line {n.lineno}: {'.' * n.level}{n.module or ''} {alias.name}"
        for n in ast.walk(ast.parse(source))
        if isinstance(n, ast.ImportFrom) and n.level
        for alias in n.names
        if alias.name.startswith("_") and not alias.name.startswith("__")
    ]


def test_private_import_checker_flags_only_underscore_names_of_the_package():
    source = (
        "from __future__ import annotations\n"
        "from os import _exit\n"
        "from .graph import _kept, build\n"
        "from ..textio import open_new\n"
        "from ..geniepath import _bce as bce, sigmoid\n"
        "from . import _hidden, cli\n"
        "from .version import __version__\n"
        "def f():\n"
        "    from .graph import _late\n"
        "    return _exit, _kept, build, open_new, bce, sigmoid, _hidden, cli, __version__, _late\n"
    )
    assert private_imports(source) == [
        "line 3: .graph _kept",
        "line 5: ..geniepath _bce",
        "line 6: . _hidden",
        "line 9: .graph _late",
    ]


@pytest.mark.parametrize("path", sorted(SRC.rglob("*.py")), ids=lambda p: str(p.relative_to(SRC)))
def test_no_private_names_imported_across_modules(path):
    assert private_imports(path.read_text(encoding="utf-8")) == []


ROOT = SRC.parent.parent
READERS = ("src", "tests", "perfbench", "tools")


def _external_base_names(tree, cls):
    """Attribute names of the class's bases that its module imports from outside the package."""
    namespace = {}
    for stmt in tree.body:
        if isinstance(stmt, ast.Import) or (isinstance(stmt, ast.ImportFrom) and not stmt.level):
            exec(compile(ast.Module([stmt], []), "<imports>", "exec"), namespace)
    names = set()
    for base in cls.bases:
        try:
            names |= set(dir(eval(ast.unparse(base), namespace)))
        except NameError:
            pass
    return names


def unreferenced_public_methods(defining: dict, reading: dict) -> list:
    """Public methods of the defining sources' classes that no reading source names outside the method itself.

    Overrides of a base class imported from outside the package are exempt.
    """
    refs = Counter()
    for text in reading.values():
        refs.update(_name_references(ast.parse(text)))
    unused = []
    for path, text in defining.items():
        tree = ast.parse(text)
        for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
            inherited = _external_base_names(tree, cls)
            for fn in cls.body:
                if (
                    isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not fn.name.startswith("_")
                    and fn.name not in inherited
                    and refs[fn.name] <= Counter(_name_references(fn))[fn.name]
                ):
                    unused.append(f"{path}: {cls.name}.{fn.name} (line {fn.lineno})")
    return unused


def test_public_method_checker_flags_only_unnamed_methods():
    source = (
        "import argparse\n"
        "class P(argparse.ArgumentParser):\n"
        "    def error(self, message): pass\n"
        "    def extra(self): pass\n"
        "class G:\n"
        "    def used(self): return 1\n"
        "    def by_test(self): pass\n"
        "    def recursive(self): return self.recursive()\n"
        "    @property\n"
        "    def size(self): return self.used()\n"
        "def f(g): return g.size\n"
    )
    sources = {"a.py": source}
    reading = {"a.py": source, "test_a.py": "def test_g(g): g.by_test()\n"}
    assert unreferenced_public_methods(sources, reading) == [
        "a.py: P.extra (line 4)",
        "a.py: G.recursive (line 8)",
    ]


def test_no_unreferenced_public_methods():
    sources = {str(p.relative_to(SRC)): p.read_text(encoding="utf-8") for p in sorted(SRC.rglob("*.py"))}
    reading = {
        str(p): p.read_text(encoding="utf-8") for d in READERS for p in sorted((ROOT / d).rglob("*.py"))
    }
    assert unreferenced_public_methods(sources, reading) == []


def splitlines_uses(source: str) -> list[str]:
    """Lines that name a splitlines method: it splits at U+2028 and other breaks the savers leave inside ids."""
    return [
        f"line {n.lineno}"
        for n in ast.walk(ast.parse(source))
        if isinstance(n, ast.Attribute) and n.attr == "splitlines"
    ]


def test_splitlines_checker_flags_only_the_method():
    source = (
        "def f(text, fh, rows):\n"
        "    a = text.splitlines()\n"
        "    b = fh.read().splitlines(True)\n"
        "    c = list(map(str.splitlines, rows))\n"
        "    d = text.split('\\n')\n"
        "    splitlines = 'x.splitlines()'\n"
        "    return a, b, c, d, splitlines\n"
    )
    assert splitlines_uses(source) == ["line 2", "line 3", "line 4"]


@pytest.mark.parametrize("path", sorted(SRC.rglob("*.py")), ids=lambda p: str(p.relative_to(SRC)))
def test_no_splitlines_in_source(path):
    assert splitlines_uses(path.read_text(encoding="utf-8")) == []


def writing_opens(source: str) -> list[str]:
    """Lines that call open with a mode that writes, outside open_new: an output must be a new file."""
    tree = ast.parse(source)
    exempt = {
        id(n) for f in ast.walk(tree) if isinstance(f, ast.FunctionDef) and f.name == "open_new" for n in ast.walk(f)
    }
    found = []
    for n in ast.walk(tree):
        if not (isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == "open") or id(n) in exempt:
            continue
        modes = n.args[1:2] + [k.value for k in n.keywords if k.arg == "mode"]
        if any(not (isinstance(m, ast.Constant) and set(str(m.value)) <= set("rbt")) for m in modes):
            found.append(f"line {n.lineno}")
    return found


def test_writing_open_checker_flags_only_writes_outside_open_new():
    source = (
        "def open_new(path):\n"
        "    return open(path, 'w')\n"
        "def f(path, mode):\n"
        "    a = open(path)\n"
        "    b = open(path, 'rb')\n"
        "    c = open(path, encoding='utf-8')\n"
        "    d = open(path, 'w', encoding='utf-8')\n"
        "    e = open(path, mode='a')\n"
        "    g = open(path, mode)\n"
        "    return a, b, c, d, e, g\n"
    )
    assert writing_opens(source) == ["line 7", "line 8", "line 9"]


@pytest.mark.parametrize("path", sorted(SRC.rglob("*.py")), ids=lambda p: str(p.relative_to(SRC)))
def test_package_writes_only_new_files(path):
    assert writing_opens(path.read_text(encoding="utf-8")) == []
