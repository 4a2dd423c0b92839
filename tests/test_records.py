"""Every frozen kplan dataclass validates its fields.

A dataclass generates its methods with ``exec`` when its module loads,
and its ``__hash__``, ``__eq__`` and ``__lt__`` run as Python code.  A
plain immutable value record is a ``typing.NamedTuple`` instead, which
costs neither.  The repository has no linter; this parses each module of
the package and fails on a ``@dataclass(frozen=True)`` class that defines
no ``__post_init__``.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1]
                  / "src" / "kplan").glob("*.py"))


def _is_frozen_dataclass(decorator) -> bool:
    if not isinstance(decorator, ast.Call):
        return False
    func = decorator.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
    return name == "dataclass" and any(
        k.arg == "frozen" and isinstance(k.value, ast.Constant)
        and k.value.value is True for k in decorator.keywords)


def unvalidated_records(source: str):
    """Names of the frozen dataclasses in the source without a
    ``__post_init__``."""
    return sorted(
        node.name for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ClassDef)
        and any(_is_frozen_dataclass(d) for d in node.decorator_list)
        and not any(isinstance(item, ast.FunctionDef)
                    and item.name == "__post_init__" for item in node.body))


def test_the_scan_finds_an_unvalidated_record():
    source = ("import dataclasses\n"
              "from dataclasses import dataclass\n"
              "@dataclass(frozen=True)\n"
              "class Plain:\n"
              "    x: int\n"
              "@dataclasses.dataclass(order=True, frozen=True)\n"
              "class Ordered:\n"
              "    x: int\n"
              "@dataclass(frozen=True)\n"
              "class Checked:\n"
              "    x: int\n"
              "    def __post_init__(self):\n"
              "        assert self.x\n"
              "@dataclass\n"
              "class Mutable:\n"
              "    x: int\n")
    assert unvalidated_records(source) == ["Ordered", "Plain"]


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_frozen_dataclasses_validate(path):
    assert unvalidated_records(path.read_text()) == []
