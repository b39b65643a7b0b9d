"""Every module under src/, tests/ and demos/ uses each name it imports.

The scan is syntactic: a name bound by an import counts as used when the
module loads it anywhere, annotations included.  Package ``__init__.py``
files are skipped, since their imports are re-exports, and so is ``from
__future__``, which binds no name.
"""

import ast
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
