"""Every module under src/, tests/ and demos/ uses each name it imports,
and every private name a module under src/ defines is loaded under src/.

The scans are syntactic: a name bound by an import counts as used when the
module loads it anywhere, annotations included.  Package ``__init__.py``
files are skipped, since their imports are re-exports, and so is ``from
__future__``, which binds no name.  A private name (``_x``, not a dunder)
defined at the top of a src/ module counts as used when some src/ module
loads it, as a bare name or as an attribute; a name only tests load is
dead code.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src", "tests", "demos")


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each name an import in ``source`` binds and the
    module never loads."""
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound.setdefault(alias.asname or alias.name.split(".")[0], node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound.setdefault(alias.asname or alias.name, node.lineno)
    loaded = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in loaded)


def private_definitions(source: str) -> list[tuple[int, str]]:
    """(line, name) of each private name that a top-level statement of
    ``source`` defines: a function, a class or an assignment."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        found += [(node.lineno, name) for name in names
                  if name.startswith("_")
                  and not (name.startswith("__") and name.endswith("__"))]
    return found


def loaded_names(source: str) -> set[str]:
    """Every name ``source`` loads, bare (``x``) or as an attribute (``m.x``)."""
    loaded = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            loaded.add(node.id)
        elif isinstance(node, ast.Attribute):
            loaded.add(node.attr)
    return loaded


def modules() -> list[Path]:
    return sorted(path for top in SCANNED for path in (ROOT / top).rglob("*.py")
                  if path.name != "__init__.py")


def test_no_module_has_an_unused_import():
    paths = modules()
    assert len(paths) >= 20  # the scan found the tree it is meant to cover
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for path in paths
             for line, name in unused_imports(path.read_text(encoding="utf-8"))]
    assert found == []


def test_scan_flags_only_what_is_never_loaded():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json as j\n"
        "from typing import Mapping, Sequence\n"
        "from collections import Counter\n"
        "def f(x: Sequence) -> None:\n"
        "    return os.path.join(x)\n"
    )
    assert unused_imports(source) == [(3, "j"), (4, "Mapping"), (5, "Counter")]


def test_every_private_src_name_is_loaded_in_src():
    sources = {path: path.read_text(encoding="utf-8")
               for path in sorted((ROOT / "src").rglob("*.py"))}
    loaded = set().union(*map(loaded_names, sources.values()))
    defined = [(path, line, name) for path, source in sources.items()
               for line, name in private_definitions(source)]
    assert len(defined) >= 30  # the scan found the private names it is meant to cover
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for path, line, name in defined if name not in loaded]
    assert found == []


def test_private_scan_flags_only_what_is_never_loaded():
    source = (
        "import m\n"
        "_TABLE = {}\n"
        "_unused: int = 0\n"
        "__all__ = ['f']\n"
        "def _helper():\n"
        "    _local = 1\n"
        "    return _TABLE\n"
        "class _Kept:\n"
        "    pass\n"
        "def f():\n"
        "    return _helper(), m._Kept\n"
    )
    assert private_definitions(source) == [(2, "_TABLE"), (3, "_unused"),
                                           (5, "_helper"), (8, "_Kept")]
    assert {"_TABLE", "_helper", "_Kept"} <= loaded_names(source)
    assert "_unused" not in loaded_names(source)


def test_cli_import_loads_no_slow_stdlib_module():
    # each of these costs milliseconds of every command's start-up; -S keeps
    # the site hooks of the environment out of the count
    slow = ("dataclasses", "inspect", "logging", "statistics", "fractions", "decimal")
    code = f"import sys, repostminer.cli; print(sorted(set({slow!r}) & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == "[]\n"
