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


def _orphaned_helpers(texts) -> list:
    """Private functions and methods (_name, not __dunder__) that the sources
    define but never reference, sorted.  A reference is a name, an attribute
    or a string constant (as getattr and setattr take), anywhere in any of
    the sources."""
    defined = set()
    used = set()
    for node in (n for text in texts for n in ast.walk(ast.parse(text))):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name.startswith("_") and not node.name.endswith("__"):
                defined.add(node.name)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.add(node.value)
    return sorted(defined - used)


def test_no_unused_imports():
    unused = {str(path.relative_to(SRC)): names for path in sorted(SRC.rglob("*.py"))
              if (names := _unused_imports(path.read_text()))}
    assert unused == {}


def test_scan_finds_unused_imports():
    text = ("from __future__ import annotations\nimport os\n"
            "import sys  # noqa: F401\nfrom json import (dumps,\n    loads)\n"
            "import numpy as np\n__all__ = ['loads']\nx = np.zeros(1)\n")
    assert _unused_imports(text) == ["os", "dumps"]


def test_no_orphaned_private_helpers():
    # Tests do not count: a helper only they call is dead code of the package.
    assert _orphaned_helpers(path.read_text() for path in sorted(SRC.rglob("*.py"))) == []


def test_scan_finds_orphaned_helpers():
    texts = ("def _called():\n    pass\n\n\ndef _orphan():\n    pass\n\n\n"
             "def __dunder__():\n    pass\n\n\ndef public():\n    _called()\n",
             "class C:\n    def _method(self):\n        pass\n\n"
             "    def _by_attr(self):\n        pass\n\n"
             "    def _by_name(self):\n        pass\n\n"
             "    def run(self):\n        return self._by_attr, getattr(self, '_by_name')\n")
    assert _orphaned_helpers(texts) == ["_method", "_orphan"]
