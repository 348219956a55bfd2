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


def _is_dataclass(decorator) -> bool:
    """@dataclass, @dataclass(...) or either spelt dataclasses.dataclass."""
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    name = target.id if isinstance(target, ast.Name) else getattr(target, "attr", None)
    return name == "dataclass"


def _write_only_fields(texts) -> list:
    """Annotated fields of the @dataclass classes in the sources that no
    source reads, as "Class.field", sorted.  A read is an attribute load or
    a string constant (as getattr and _JSON_KEYS take), anywhere in any of
    the sources.  NamedTuple rows are read by unpacking, so they are not
    scanned."""
    fields = []
    read = set()
    for node in (n for text in texts for n in ast.walk(ast.parse(text))):
        if isinstance(node, ast.ClassDef) and any(map(_is_dataclass, node.decorator_list)):
            fields += [(node.name, stmt.target.id) for stmt in node.body
                       if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)]
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            read.add(node.value)
    return sorted(f"{cls}.{name}" for cls, name in fields if name not in read)


# The pure-int oracles may assert the property they model; anywhere else a
# check must raise, since python -O strips an assert.
PURE_INT_ORACLES = {"ntt_oracle", "intt_oracle", "automorphism_oracle", "automorphism_shuffle"}


def _bare_asserts(text: str, allowed=frozenset()) -> list:
    """Lines of the assert statements in a module that no function named in
    allowed encloses, at any depth, in source order."""
    lines = []

    def visit(node, inside):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Assert) and not inside:
                lines.append(child.lineno)
            visit(child, inside or isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and child.name in allowed)
    visit(ast.parse(text), False)
    return sorted(lines)


# The type names (int, numbers.Integral, np.integer) an integer check tests
# against beside bool.
_INTEGER_TYPES = {"int", "Integral", "integer"}


def _integer_checks(texts) -> list:
    """Functions and methods whose own isinstance calls (not those of a
    function nested in them) name both bool and an integer type, sorted."""
    found = []

    def visit(node, named):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = set()
                visit(child, inner)
                if "bool" in inner and inner & _INTEGER_TYPES:
                    found.append(child.name)
                continue
            if (named is not None and isinstance(child, ast.Call)
                    and isinstance(child.func, ast.Name) and child.func.id == "isinstance"
                    and len(child.args) == 2):
                named.update(n.id if isinstance(n, ast.Name) else n.attr
                             for n in ast.walk(child.args[1])
                             if isinstance(n, (ast.Name, ast.Attribute)))
            visit(child, named)
    for text in texts:
        visit(ast.parse(text), None)
    return sorted(found)


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


def test_no_write_only_dataclass_fields():
    # Tests do not count, as for the helpers.  The scan matches by name, so a
    # field is taken as read wherever any attribute of its name is:
    # SecretKey.coeffs, a list that nothing read, escaped it because
    # Poly.coeffs is read, and only a review finds such a field.
    assert _write_only_fields(path.read_text() for path in sorted(SRC.rglob("*.py"))) == []


def test_scan_finds_write_only_fields():
    texts = ("import dataclasses\nfrom dataclasses import dataclass\n"
             "from typing import NamedTuple\n\n\n"
             "@dataclass(frozen=True)\nclass A:\n    read: int\n    orphan: int\n"
             "    by_name: int = 0\n    KEYS = ('by_name',)\n\n\n"
             "@dataclasses.dataclass\nclass B:\n    stored: int\n\n"
             "    def set(self):\n        self.stored = 1\n\n\n"
             "class Row(NamedTuple):\n    unpacked: int\n\n\n"
             "class Plain:\n    note: int\n",
             "def use(a):\n    return a.read\n")
    assert _write_only_fields(texts) == ["A.orphan", "B.stored"]


def test_no_bare_asserts_outside_the_oracles():
    found = {str(path.relative_to(SRC)): lines for path in sorted(SRC.rglob("*.py"))
             if (lines := _bare_asserts(path.read_text(), PURE_INT_ORACLES))}
    assert found == {}


def test_scan_finds_bare_asserts():
    text = ("assert True\n"
            "def oracle():\n    assert 1\n    def inner():\n        assert 2\n"
            "def guard():\n    assert 3\n"
            "class C:\n    def oracle(self):\n        assert 4\n"
            "    def method(self):\n        assert 5\n")
    assert _bare_asserts(text) == [1, 3, 5, 7, 10, 12]
    assert _bare_asserts(text, {"oracle"}) == [1, 7, 12]


def test_one_integer_check():
    # ckks, trivium, schedules and analytic each kept their own copy of this
    # check; ChipletConfig.__post_init__ (a JSON field's annotated type) and
    # polykernel._refused_dtype (a residue row's dtype) test other things
    assert _integer_checks(path.read_text() for path in sorted(SRC.rglob("*.py"))) \
        == ["check_integer"]


def test_scan_finds_integer_checks():
    texts = ("import numbers\nimport numpy as np\n\n\n"
             "def integral(x):\n"
             "    return not isinstance(x, bool) and isinstance(x, numbers.Integral)\n\n\n"
             "def tupled(x):\n    return isinstance(x, (bool, np.bool_, int, np.integer))\n\n\n"
             "def only_bool(x):\n    return isinstance(x, bool)\n\n\n"
             "def by_type(xs):\n"
             "    return any(isinstance(x, bool) for x in xs) or type(xs[0]) is int\n",
             "class C:\n    def method(self, x):\n"
             "        return isinstance(x, (bool, float)) or isinstance(x, np.integer)\n\n"
             "    def outer(self, x):\n        def nested(y):\n"
             "            return isinstance(y, bool) or isinstance(y, int)\n"
             "        return isinstance(x, bool), nested\n")
    assert _integer_checks(texts) == ["integral", "method", "nested", "tupled"]
