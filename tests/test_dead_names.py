"""Every name kplan defines is used, and every record field is read.

The repository has no linter; this parses each module of the package
and fails on a module-level function, class or constant, or a method,
whose name appears nowhere in ``src/kplan``, ``tests`` or ``perfbench``
but at its own definition, and on a field of a record (a ``NamedTuple``
or a dataclass) that is never read as ``.field`` there.  A name appears
as a name, an attribute, an imported name or a string that is exactly
the name (``getattr``, ``monkeypatch.setattr``).  Dunder names are
exempt.  The scan goes by name alone, so a name used for one thing
counts as used for every thing it names.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "kplan").glob("*.py"))
SCANNED = sorted(p for d in (ROOT / "src" / "kplan", ROOT / "tests",
                             ROOT / "perfbench")
                 for p in d.rglob("*.py"))


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _is_record(node: ast.ClassDef) -> bool:
    def name(expr):
        if isinstance(expr, ast.Call):
            expr = expr.func
        return expr.id if isinstance(expr, ast.Name) else \
            getattr(expr, "attr", "")

    return any(name(b) == "NamedTuple" for b in node.bases) or \
        any(name(d) == "dataclass" for d in node.decorator_list)


def definitions(source: str):
    """(names, fields): the module-level functions, classes and constants
    and the methods the source defines, and its records' fields, as
    sorted lists of (qualified name, name)."""
    names, fields = [], []

    def visit_class(cls: ast.ClassDef, prefix: str):
        record = _is_record(cls)
        for item in cls.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names.append((prefix + item.name, item.name))
            elif isinstance(item, ast.ClassDef):
                names.append((prefix + item.name, item.name))
                visit_class(item, prefix + item.name + ".")
            elif record and isinstance(item, ast.AnnAssign) \
                    and isinstance(item.target, ast.Name):
                fields.append((prefix + item.target.id, item.target.id))

    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names.append((node.name, node.name))
        elif isinstance(node, ast.ClassDef):
            names.append((node.name, node.name))
            visit_class(node, node.name + ".")
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            names += [(t.id, t.id) for t in targets
                      if isinstance(t, ast.Name)]
    return ([d for d in sorted(names) if not _dunder(d[1])],
            [d for d in sorted(fields) if not _dunder(d[1])])


def uses(source: str):
    """(appearing, read): the names that appear in the source other than
    where they are defined, and the attributes it reads."""
    appearing, read = set(), set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            appearing.add(node.id)
        elif isinstance(node, ast.Attribute):
            appearing.add(node.attr)
            if isinstance(node.ctx, ast.Load):
                read.add(node.attr)
        elif isinstance(node, ast.alias):
            appearing.add(node.name.split(".")[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            appearing.add(node.value)
    return appearing, read


def dead(package, scanned):
    """(unused names, unread fields) over (module, source) pairs: the
    package's definitions against the uses in every scanned source."""
    appearing, read = set(), set()
    for source in scanned:
        a, r = uses(source)
        appearing |= a
        read |= r
    unused, unread = [], []
    for module, source in package:
        names, fields = definitions(source)
        unused += [f"{module}.{q}" for q, n in names if n not in appearing]
        unread += [f"{module}.{q}" for q, n in fields if n not in read]
    return unused, unread


def test_the_scan_finds_dead_names_and_unread_fields():
    package = ("from typing import NamedTuple\n"
               "LIMIT = 3\n"
               "UNUSED = 4\n"
               "class R(NamedTuple):\n"
               "    kept: int\n"
               "    built_only: int\n"
               "    def method(self):\n"
               "        return self.kept + LIMIT\n"
               "    def __repr__(self):\n"
               "        return ''\n"
               "def helper():\n"
               "    return R(kept=1, built_only=2)\n"
               "def orphan():\n"
               "    pass\n")
    caller = ("from m import helper\n"
              "getattr(helper(), 'method')()\n")
    assert dead([("m", package)], [package, caller]) == (
        ["m.UNUSED", "m.orphan"], ["m.R.built_only"])


def test_every_definition_is_used_and_every_field_read():
    assert dead([(p.stem, p.read_text()) for p in PACKAGE],
                [p.read_text() for p in SCANNED]) == ([], [])
