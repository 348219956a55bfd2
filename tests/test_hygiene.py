"""Tooling checks on the package source itself."""

import ast
from pathlib import Path

import fhesim

SRC = Path(fhesim.__file__).resolve().parent


def _unused_imports(text: str) -> list:
    """Names a module imports but never references, in import order.  A name
    listed in __all__ counts as referenced, and an import statement that
    carries `# noqa: F401` is a deliberate re-export."""
    lines = text.splitlines()
    imported = {}
    used = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) == "__future__" or any(
                    "noqa: F401" in ln for ln in lines[node.lineno - 1:node.end_lineno]):
                continue
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return [name for name, _ in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in used]


def test_no_unused_imports():
    unused = {str(path.relative_to(SRC)): names for path in sorted(SRC.rglob("*.py"))
              if (names := _unused_imports(path.read_text()))}
    assert unused == {}


def test_scan_finds_unused_imports():
    text = ("from __future__ import annotations\nimport os\n"
            "import sys  # noqa: F401\nfrom json import (dumps,\n    loads)\n"
            "import numpy as np\n__all__ = ['loads']\nx = np.zeros(1)\n")
    assert _unused_imports(text) == ["os", "dumps"]
