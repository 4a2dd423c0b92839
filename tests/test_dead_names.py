"""Every name kplan defines is used, every record field is read, and every
parameter and field default is overridden by some call.

The repository has no linter; this parses each module of the package
and fails on a module-level function, class or constant, or a method,
whose name appears nowhere in ``src/kplan``, ``tests`` or ``perfbench``
but at its own definition, and on a field of a record (a ``NamedTuple``
or a dataclass) that is never read as ``.field`` there.  A name appears
as a name, an attribute, an imported name or a string that is exactly
the name (``getattr``, ``monkeypatch.setattr``).  Dunder names are
exempt.  The scan goes by name alone, so a name used for one thing
counts as used for every thing it names.

A second scan fails on a name that ``kplan/__init__.py`` exports but
that those directories reference neither as a bare name nor as an
attribute of ``kplan`` or of one of its modules: an attribute of anything
else (``grounder.clause``) is another name that happens to match.

A third scan fails on a parameter with a default, of a function or a
method, that no call in those directories sets, by keyword or by
position: the default is then the only value it takes.  A call matches
every definition of its name; a call to a class is a call to its
``__init__``.  An argument unpacked with ``*`` sets every positional
parameter from its place on, and one unpacked with ``**`` sets all.

A fourth scan does the same for a field with a default of a record: a
construction of the record sets it by keyword or by position, and a call
to ``_replace`` or ``replace`` by keyword.

A fifth scan fails on a function or method of ``src/kplan`` whose name
only tests use: nothing in ``src/kplan`` but its definition and the
export list, and nothing in ``perfbench``.  A method counts as used only
through an attribute or an exact string, as a bare name is a module
function or a local.  A module function counts as used through a bare
name only where no enclosing function or comprehension binds that name
(``symtable`` tells), through an imported name or an attribute, or
through a string that names an attribute: the second argument of
``getattr``, ``setattr``, ``hasattr`` or ``delattr``, or the second item
of an (owner, name) pair.  The references the tests judge kplan by are
listed, each with its reason, as the exceptions.

A sixth scan fails on an attribute that a method of a ``src/kplan``
class sets on ``self``, or on the object its ``__new__`` builds, and
that no program source reads, as an attribute or as an exact string:
kplan then keeps a value that only tests look at.
"""

import ast
import symtable
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "kplan").glob("*.py"))
SCANNED = sorted(p for d in (ROOT / "src" / "kplan", ROOT / "tests",
                             ROOT / "perfbench")
                 for p in d.rglob("*.py"))
# the program: what kplan runs, without its export list and its tests
PROGRAM = [p for p in SCANNED if "tests" not in p.relative_to(ROOT).parts
           and p.name != "__init__.py"]


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


def exported(source: str):
    """The names an ``__init__`` source imports from its modules."""
    return sorted(a.asname or a.name for node in ast.parse(source).body
                  if isinstance(node, ast.ImportFrom) for a in node.names)


def references(source: str, modules):
    """The names the source reads bare, or as an attribute of one of the
    ``modules`` (the package and its modules, by name)."""
    refs = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            owner = node.value
            if getattr(owner, "id", getattr(owner, "attr", None)) in modules:
                refs.add(node.attr)
    return refs


def unreferenced_exports(init_source: str, scanned, modules):
    refs = set().union(*(references(s, modules) for s in scanned))
    return [n for n in exported(init_source) if n not in refs]


def test_the_scan_finds_exports_nothing_references():
    init = ("from .m import (used, by_attribute, by_other_owner, unused)\n"
            "from .n import by_module_path\n")
    caller = ("from kplan import used, unused\n"
              "used()\n"
              "m.by_attribute\n"
              "grounder.by_other_owner()\n"
              "kplan.n.by_module_path\n")
    assert unreferenced_exports(init, [init, caller], {"kplan", "m", "n"}) \
        == ["by_other_owner", "unused"]


def test_every_export_is_referenced():
    init = ROOT / "src" / "kplan" / "__init__.py"
    modules = {"kplan"} | {p.stem for p in PACKAGE}
    assert unreferenced_exports(init.read_text(),
                                [p.read_text() for p in SCANNED],
                                modules) == []


def defaulted_parameters(source: str):
    """(qualified name, name, positional parameters, defaulted parameter)
    for each parameter with a default of each function and method the
    source defines; a method's positional parameters leave out ``self``
    or ``cls``, which the call does not pass."""
    out = []

    def visit(body, prefix: str, in_class: bool):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = node.args
                positional = [x.arg for x in a.posonlyargs + a.args]
                static = any(getattr(d, "id", "") == "staticmethod"
                             for d in node.decorator_list)
                bound = positional[1:] if in_class and not static \
                    else positional
                defaulted = positional[len(positional) - len(a.defaults):] \
                    if a.defaults else []
                defaulted += [k.arg for k, d in zip(a.kwonlyargs,
                                                    a.kw_defaults)
                              if d is not None]
                out.extend((prefix + node.name, node.name, bound, p)
                           for p in defaulted)
            elif isinstance(node, ast.ClassDef):
                visit(node.body, prefix + node.name + ".", True)

    visit(ast.parse(source).body, "", False)
    return out


def _sets(call: ast.Call, positional, parameter: str) -> bool:
    for i, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred):
            if parameter in positional[i:]:
                return True
            break
        if i < len(positional) and positional[i] == parameter:
            return True
    return any(k.arg in (None, parameter) for k in call.keywords)


def _calls(scanned):
    """Callee name -> the calls to it in the scanned sources."""
    calls = {}
    for source in scanned:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or \
                    getattr(node.func, "attr", None)
                calls.setdefault(name, []).append(node)
    return calls


def dead_parameters(package, scanned):
    """The defaulted parameters, as ``module.function(parameter)``, of the
    package's (module, source) pairs that no call in the scanned sources
    sets."""
    calls = _calls(scanned)
    dead = []
    for module, source in package:
        for qualified, name, positional, parameter in \
                defaulted_parameters(source):
            callers = calls.get(name, [])
            if name == "__init__":
                callers = callers + calls.get(qualified.split(".")[-2], [])
            if not any(_sets(c, positional, parameter) for c in callers):
                dead.append(f"{module}.{qualified}({parameter})")
    return dead


def test_the_scan_finds_parameters_no_call_sets():
    package = ("class C:\n"
               "    def __init__(self, a, b=1):\n"
               "        pass\n"
               "    def m(self, x, y=2, *, z=3):\n"
               "        pass\n"
               "def f(p, q=0, r=0, s=0):\n"
               "    pass\n"
               "def g(u=0):\n"
               "    pass\n")
    caller = ("C(1, 2).m(0, z=4)\n"
              "f(1, 2)\n"
              "f(*args)\n"
              "g(**options)\n")
    assert dead_parameters([("m", package)], [caller]) == ["m.C.m(y)"]
    caller = "C(1).m(0, 1)\nf(p=1, s=2)\n"
    assert dead_parameters([("m", package)], [caller]) == [
        "m.C.__init__(b)", "m.C.m(z)", "m.f(q)", "m.f(r)", "m.g(u)"]


def test_every_parameter_with_a_default_is_set_by_some_call():
    assert dead_parameters([(p.stem, p.read_text()) for p in PACKAGE],
                           [p.read_text() for p in SCANNED]) == []


def defaulted_fields(source: str):
    """(qualified name, name, fields, defaulted field) for each field with
    a default of each record the source defines, its fields in order."""
    out = []

    def visit(body, prefix: str):
        for node in body:
            if not isinstance(node, ast.ClassDef):
                continue
            if _is_record(node):
                fields = [item for item in node.body
                          if isinstance(item, ast.AnnAssign)
                          and isinstance(item.target, ast.Name)]
                names = [f.target.id for f in fields]
                out.extend((prefix + node.name, node.name, names, f.target.id)
                           for f in fields if f.value is not None)
            visit(node.body, prefix + node.name + ".")

    visit(ast.parse(source).body, "")
    return out


def dead_fields(package, scanned):
    """The defaulted record fields, as ``module.Record.field``, of the
    package's (module, source) pairs that no construction in the scanned
    sources sets, by keyword or by position, and no ``_replace`` or
    ``dataclasses.replace`` sets by keyword."""
    calls = _calls(scanned)
    replacing = calls.get("_replace", []) + calls.get("replace", [])
    dead = []
    for module, source in package:
        for qualified, name, fields, field in defaulted_fields(source):
            if not (any(_sets(c, fields, field) for c in calls.get(name, []))
                    or any(_sets(c, [], field) for c in replacing)):
                dead.append(f"{module}.{qualified}.{field}")
    return dead


def test_the_scan_finds_record_fields_no_construction_sets():
    package = ("from dataclasses import dataclass\n"
               "from typing import NamedTuple\n"
               "class T(NamedTuple):\n"
               "    a: int\n"
               "    b: int = 0\n"
               "    c: int = 0\n"
               "    d: int = 0\n"
               "    e: int = 0\n"
               "@dataclass(frozen=True)\n"
               "class D:\n"
               "    x: int = 0\n"
               "    y: int = 0\n"
               "class Plain:\n"
               "    z: int = 0\n")
    caller = ("T(1, 2)\n"
              "T(a=1, c=3)\n"
              "t._replace(d=4)\n"
              "replace(D(), y=1)\n"
              "'text'.replace('x', 'y')\n")
    assert dead_fields([("m", package)], [caller]) == ["m.T.e", "m.D.x"]
    assert dead_fields([("m", package)], ["T(*args)\nD(**options)\n"]) == []


def test_every_record_field_with_a_default_is_set_by_some_construction():
    assert dead_fields([(p.stem, p.read_text()) for p in PACKAGE],
                       [p.read_text() for p in SCANNED]) == []


def functions(source: str):
    """(qualified name, name) of each function and method the source
    defines, dunders left out."""
    out = []

    def visit(body, prefix: str):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not _dunder(node.name):
                    out.append((prefix + node.name, node.name))
            elif isinstance(node, ast.ClassDef):
                visit(node.body, prefix + node.name + ".")

    visit(ast.parse(source).body, "")
    return out


def reached(source: str):
    """The names the source reads as an attribute or spells as an exact
    string: the only ways to reach a method, as a bare name is a module
    function or a local, or to read an attribute set on ``self``."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            out.add(node.value)
    return out


NAMING = {"getattr", "setattr", "hasattr", "delattr"}


def reached_at_module_level(source: str):
    """The names by which the source can reach a module function: a bare
    name that no enclosing function or comprehension binds, an imported
    name, an attribute, and a string that names an attribute, as the
    second argument of a call in ``NAMING`` or of an (owner, name) pair."""
    out = set()
    tables = [symtable.symtable(source, "<scanned>", "exec")]
    while tables:
        table = tables.pop()
        tables += table.get_children()
        out.update(sym.get_name() for sym in table.get_symbols()
                   if sym.is_referenced() and sym.is_global())
    for node in ast.walk(ast.parse(source)):
        items = []
        if isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.split(".")[-1])
        elif isinstance(node, ast.Call) and (
                getattr(node.func, "id", None)
                or getattr(node.func, "attr", None)) in NAMING:
            items = node.args
        elif isinstance(node, ast.Tuple) and len(node.elts) == 2:
            items = node.elts
        if len(items) > 1 and isinstance(items[1], ast.Constant) \
                and isinstance(items[1].value, str):
            out.add(items[1].value)
    return out


def used_only_by_tests(package, program):
    """The functions and methods, as ``module.qualified``, of the package's
    (module, source) pairs that none of the program's sources reaches
    but at its own definition: a module function by
    ``reached_at_module_level``, a method by an attribute or a string."""
    functions_reached = set().union(*(reached_at_module_level(s)
                                      for s in program))
    attributes = set().union(*(reached(s) for s in program))
    return [f"{module}.{q}" for module, source in package
            for q, n in functions(source)
            if n not in (attributes if "." in q else functions_reached)]


def test_the_scan_finds_functions_only_tests_use():
    package = ("class C:\n"
               "    def used(self):\n"
               "        return self.helper()\n"
               "    def helper(self):\n"
               "        pass\n"
               "    def tested(self):\n"
               "        pass\n"
               "    def shadowed(self):\n"
               "        pass\n"
               "    def __len__(self):\n"
               "        return 0\n"
               "def oracle():\n"
               "    pass\n"
               "def traced():\n"
               "    pass\n"
               "def outer():\n"
               "    def shadowed():\n"
               "        pass\n"
               "    return shadowed()\n"
               "def width():\n"
               "    pass\n"
               "def rule():\n"
               "    pass\n"
               "def action():\n"
               "    pass\n"
               "def keyed():\n"
               "    pass\n"
               "def fetched():\n"
               "    pass\n"
               "def paired():\n"
               "    pass\n")
    bench = ("setattr(m, 'traced', wrap(m.traced))\nC().used()\nm.outer()\n"
             "def user(width):\n"
             "    rows = [rule for rule in width]\n"
             "    for action in rows:\n"
             "        print(action, {'keyed': rows})\n"
             "    return getattr(m, 'fetched'), (m, 'paired')\n")
    assert used_only_by_tests([("m", package)], [package, bench]) == [
        "m.C.tested", "m.C.shadowed", "m.oracle", "m.width", "m.rule",
        "m.action", "m.keyed"]


# the references the tests judge kplan by; kplan itself never calls them
REFERENCES = {
    "verify.belief_bfs": "exact belief-space search, the shortest "
                         "conformant plans the planner is judged by",
    "planner.bfs_optimal": "exact classical search, the optimal plan "
                           "lengths the translations are judged by",
    "verify.build_basis": "the paper's basis of initial states, by which "
                          "the merges of a spec are judged",
    "analysis.width": "the paper's conformant width of a problem, by which "
                      "criteria 03 and 07 judge the families and the "
                      "completeness of ki:i",
}


def test_every_function_is_used_by_the_program():
    """A function that only tests call is dead code kept alive by its
    tests, unless it is a reference they judge kplan by.  The export list
    is no use, and nor is a test: the program is ``src/kplan`` without
    ``__init__.py``, and ``perfbench``."""
    found = used_only_by_tests([(p.stem, p.read_text()) for p in PACKAGE],
                               [p.read_text() for p in PROGRAM])
    assert sorted(found) == sorted(REFERENCES)


def set_attributes(source: str):
    """(class.attribute, attribute) for each attribute that a method of a
    class the source defines assigns on its first parameter, or, in
    ``__new__``, on a name bound to a ``__new__`` call; dunders left
    out."""
    out = set()

    def visit(body, prefix: str):
        for node in body:
            if isinstance(node, ast.ClassDef):
                visit(node.body, prefix + node.name + ".")
            elif prefix and isinstance(node, ast.FunctionDef) \
                    and node.args.args:
                owners = {node.args.args[0].arg}
                for sub in ast.walk(node):
                    if node.name == "__new__" and isinstance(sub, ast.Assign) \
                            and isinstance(sub.value, ast.Call) \
                            and getattr(sub.value.func, "attr", "") \
                            == "__new__":
                        owners |= {t.id for t in sub.targets
                                   if isinstance(t, ast.Name)}
                for sub in ast.walk(node):
                    if isinstance(sub, ast.Attribute) \
                            and isinstance(sub.ctx, ast.Store) \
                            and getattr(sub.value, "id", None) in owners \
                            and not _dunder(sub.attr):
                        out.add((prefix + sub.attr, sub.attr))

    visit(ast.parse(source).body, "")
    return sorted(out)


def attributes_only_tests_read(package, program):
    """The attributes, as ``module.Class.attribute``, that the package's
    (module, source) pairs set and that none of the program's sources
    reads."""
    read = set().union(*(reached(s) for s in program))
    return [f"{module}.{q}" for module, source in package
            for q, n in set_attributes(source) if n not in read]


def test_the_scan_finds_attributes_only_tests_read():
    package = ("class C:\n"
               "    def __init__(self, x):\n"
               "        self.kept = x\n"
               "        self.counted = 0\n"
               "        self.unread = x\n"
               "        self.by_name = x\n"
               "        self.__dict__ = {}\n"
               "        other.elsewhere = x\n"
               "    def bump(self):\n"
               "        self.counted += 1\n"
               "        self.late = self.kept\n"
               "class S(str):\n"
               "    def __new__(cls, text):\n"
               "        obj = super().__new__(cls, text)\n"
               "        obj.where = 0\n"
               "        obj.shown = 0\n"
               "        return obj\n")
    bench = "getattr(c, 'by_name')\nprint(s.shown)\n"
    assert attributes_only_tests_read([("m", package)], [package, bench]) \
        == ["m.C.counted", "m.C.late", "m.C.unread", "m.S.where"]


def test_every_attribute_kplan_sets_is_read_by_the_program():
    """An attribute that only tests read is a second form of a fact that
    the program keeps for them alone.  The program is ``src/kplan``
    without ``__init__.py``, and ``perfbench``."""
    assert attributes_only_tests_read(
        [(p.stem, p.read_text()) for p in PACKAGE],
        [p.read_text() for p in PROGRAM]) == []
