"""No two kplan functions have the same body.

The repository has no linter; this parses each module of the package,
methods and nested functions included, and fails when two functions
have identical bodies once their docstrings are dropped.  A second
copy of a body is one more place to keep in step with the first.
"""

import ast
from collections import defaultdict
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1]
                  / "src" / "kplan").glob("*.py"))


def function_bodies(source: str, module: str):
    """(qualified name, dump of the body without its docstring) for every
    function in the source."""
    out = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                body = child.body
                if ast.get_docstring(child) is not None:
                    body = body[1:]
                out.append((prefix + child.name,
                            ast.dump(ast.Module(body=body, type_ignores=[]))))
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                visit(child, prefix + child.name + ".")

    visit(ast.parse(source), module + ".")
    return out


def duplicates(named_sources):
    by_body = defaultdict(list)
    for module, source in named_sources:
        for name, body in function_bodies(source, module):
            by_body[body].append(name)
    return sorted(names for names in by_body.values() if len(names) > 1)


def test_the_scan_finds_a_duplicated_body():
    source = ('class A:\n'
              '    def f(self, x):\n'
              '        """one"""\n'
              '        return x + 1\n'
              'def g(self, x):\n'
              '    return x + 1\n'
              'def h(self, x):\n'
              '    return x + 2\n')
    assert duplicates([("m", source)]) == [["m.A.f", "m.g"]]


def test_no_two_functions_share_a_body():
    assert duplicates([(p.stem, p.read_text()) for p in SOURCES]) == []
