"""Every name a kplan module imports is used in that module.

The repository has no linter; this parses each module of the package
(except ``__init__.py``, whose imports are its public interface) and
fails on an imported name that never appears as a name in the code.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted(p for p in (Path(__file__).resolve().parents[1]
                             / "src" / "kplan").glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source: str):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_the_scan_finds_an_unused_import():
    assert unused_imports("import os\nfrom a.b import c as d, e\n"
                          "import x.y\nprint(e, x.y)\n") == [(1, "os"),
                                                            (2, "d")]


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
