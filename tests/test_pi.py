"""Prime-implicate engine tests against a truth-table oracle."""

import ast
import itertools
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kplan import InconsistentInit, Merge, PiBlowup, prime_implicates
from kplan.errors import ValidityUndecidedAtCap
from kplan.model import Literal, is_tautology, neg, pos
from kplan.pi import DEFAULT_MODEL_CAP, EMPTY_TAG, PICNF

from conftest import (reference_entails_literal, reference_enumerate_states,
                      states_until_cap)


# --- truth-table oracle ---------------------------------------------------------

def models_of(clauses, variables):
    out = []
    for bits in itertools.product([False, True], repeat=len(variables)):
        m = dict(zip(variables, bits))
        if all(any(m[l.fluent] == l.positive for l in c) for c in clauses):
            out.append(m)
    return out


def oracle_prime_implicates(clauses, variables):
    """All inclusion-minimal non-tautological entailed clauses."""
    mods = models_of(clauses, variables)
    if not mods:
        return None  # unsatisfiable
    entailed = []
    for signs in itertools.product([None, False, True], repeat=len(variables)):
        c = frozenset(Literal(v, s) for v, s in zip(variables, signs)
                      if s is not None)
        if not c or is_tautology(c):
            continue
        if all(any(m[l.fluent] == l.positive for l in c) for m in mods):
            entailed.append(c)
    return frozenset(c for c in entailed
                     if not any(o < c for o in entailed))


def random_cnf(rng, variables, max_clauses=5):
    clauses = []
    for _ in range(rng.randint(1, max_clauses)):
        size = rng.randint(1, min(3, len(variables)))
        fs = rng.sample(variables, size)
        clauses.append(frozenset(Literal(f, rng.random() < 0.5) for f in fs))
    return clauses


def test_prime_implicates_match_truth_table_oracle():
    rng = random.Random(20240817)
    checked = 0
    for _ in range(100):
        nvars = rng.randint(2, 6)
        variables = [f"v{i}" for i in range(nvars)]
        cnf = random_cnf(rng, variables)
        expected = oracle_prime_implicates(cnf, variables)
        if expected is None:
            with pytest.raises(InconsistentInit):
                prime_implicates(cnf, variables)
        else:
            got = prime_implicates(cnf, variables).clauses
            assert got == expected
        checked += 1
    assert checked == 100


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_prime_implicates_property(data):
    nvars = data.draw(st.integers(2, 5))
    variables = [f"v{i}" for i in range(nvars)]
    lits = [Literal(v, s) for v in variables for s in (False, True)]
    cnf = data.draw(st.lists(
        st.frozensets(st.sampled_from(lits), min_size=1, max_size=3),
        min_size=1, max_size=4))
    expected = oracle_prime_implicates(
        [c for c in cnf if not is_tautology(c)], variables)
    if expected is None:
        with pytest.raises(InconsistentInit):
            prime_implicates(cnf, variables)
    else:
        assert prime_implicates(cnf, variables).clauses == expected


# --- entailment, closures, tags ---------------------------------------------------

@pytest.fixture
def disjunctive():
    """I = { q, p|r }, over p, q, r."""
    return prime_implicates([frozenset([pos("q")]),
                             frozenset([pos("p"), pos("r")])],
                            ["p", "q", "r"])


def test_units_and_unknowns(disjunctive):
    assert disjunctive.units == frozenset([pos("q")])
    assert disjunctive.unknown_fluents() == ("p", "r")


def test_entailment_is_tag_conditional(disjunctive):
    def entails(tag, L):
        return reference_entails_literal(disjunctive, frozenset(tag), L)

    assert entails([], pos("q"))
    assert not entails([], pos("p"))
    assert entails([neg("p")], pos("r"))
    assert entails([neg("r")], pos("p"))
    # anything follows from an I-inconsistent tag
    assert entails([neg("q")], pos("p"))


def test_closure_and_tag_consistency(disjunctive):
    assert disjunctive.closure(EMPTY_TAG) == frozenset([pos("q")])
    assert disjunctive.closure(frozenset([neg("p")])) == frozenset(
        [neg("p"), pos("q"), pos("r")])
    assert disjunctive.tag_consistent(frozenset([pos("p")]))
    assert not disjunctive.tag_consistent(frozenset([neg("q")]))


def test_closure_against_model_intersection():
    """t* must be exactly the literals true in every model of I u t."""
    rng = random.Random(7)
    for _ in range(40):
        nvars = rng.randint(2, 5)
        variables = [f"v{i}" for i in range(nvars)]
        cnf = random_cnf(rng, variables, max_clauses=3)
        try:
            pi = prime_implicates(cnf, variables)
        except InconsistentInit:
            continue
        tag = frozenset(Literal(v, rng.random() < 0.5)
                        for v in rng.sample(variables, rng.randint(0, 2)))
        mods = models_of(list(cnf) + [frozenset([l]) for l in tag], variables)
        if not mods:
            assert not pi.tag_consistent(tag)
            continue
        expected = frozenset(
            Literal(v, s) for v in variables for s in (False, True)
            if all(m[v] == s for m in mods))
        assert pi.closure(tag) == expected


def test_models_enumeration(disjunctive):
    mods = list(disjunctive.models(["p", "q", "r"]))
    assert len(mods) == 3  # q fixed; (p,r) in {01,10,11}
    with pytest.raises(ValidityUndecidedAtCap):
        list(disjunctive.models(["p", "q", "r"], cap=2))


def test_models_match_reference_enumeration():
    """models = the enumeration over I's clauses within the variables."""
    rng = random.Random(606)
    checked = 0
    for _ in range(200):
        nvars = rng.randint(2, 6)
        universe = [f"v{i}" for i in range(nvars)]
        try:
            pi = prime_implicates(random_cnf(rng, universe), universe)
        except InconsistentInit:
            continue
        variables = rng.sample(universe, rng.randint(1, nvars))
        cap = rng.choice([None, 2, DEFAULT_MODEL_CAP])
        within = [c for c in pi.clauses
                  if all(l.fluent in variables for l in c)]
        want = states_until_cap(
            reference_enumerate_states, within, variables, cap=cap)
        got = states_until_cap(pi.models, variables, cap=cap)
        assert got == want
        checked += 1
    assert checked >= 150


def test_models_are_the_restrictions_of_the_models_of_i():
    """In PI form, the clauses within V decide every assignment to V: the
    models over V are exactly the models of I restricted to V."""
    rng = random.Random(2828)
    checked = 0
    for _ in range(300):
        nvars = rng.randint(2, 7)
        universe = [f"v{i}" for i in range(nvars)]
        cnf = random_cnf(rng, universe, max_clauses=6)
        try:
            pi = prime_implicates(cnf, universe)
        except InconsistentInit:
            continue
        variables = rng.sample(universe, rng.randint(1, nvars))
        want = {frozenset(l for l in state if l.fluent in variables)
                for state in reference_enumerate_states(cnf, universe,
                                                        cap=None)}
        assert set(pi.models(variables, cap=None)) == want
        checked += 1
    assert checked >= 200


def test_merge_validity(disjunctive):
    good = Merge(frozenset([frozenset([pos("p")]), frozenset([pos("r")])]),
                 pos("q"))
    assert disjunctive.merge_valid(good)
    bad = Merge(frozenset([frozenset([pos("p")])]), pos("q"))
    assert not disjunctive.merge_valid(bad)


def test_merge_validity_matches_brute_force():
    """merge_valid(m) iff every model of I makes some tag of m true."""
    rng = random.Random(2929)
    verdicts = {True: 0, False: 0}
    for _ in range(400):
        nvars = rng.randint(2, 6)
        universe = [f"v{i}" for i in range(nvars)]
        cnf = random_cnf(rng, universe)
        try:
            pi = prime_implicates(cnf, universe)
        except InconsistentInit:
            continue
        if rng.random() < 0.5:  # random tags
            tags = {frozenset(Literal(v, rng.random() < 0.5)
                              for v in rng.sample(universe, rng.randint(0, 2)))
                    for _ in range(rng.randint(1, 4))}
        else:  # the assignments to a few variables, maybe less one
            split = rng.sample(universe, rng.randint(1, min(3, nvars)))
            tags = {frozenset(Literal(v, b) for v, b in zip(split, bits))
                    for bits in itertools.product([False, True],
                                                  repeat=len(split))}
            if rng.random() < 0.5:
                tags.discard(rng.choice(sorted(tags, key=sorted)))
        if not tags:
            continue
        want = all(any(all(m[l.fluent] == l.positive for l in t)
                       for t in tags)
                   for m in models_of(cnf, universe))
        assert pi.merge_valid(Merge(frozenset(tags), pos("g"))) == want
        verdicts[want] += 1
    assert min(verdicts.values()) >= 50, verdicts


def test_pi_clause_cap():
    variables = [f"v{i}" for i in range(6)]
    clauses = [frozenset([Literal(a, True), Literal(b, False)])
               for a, b in itertools.permutations(variables, 2)]
    with pytest.raises(PiBlowup):
        prime_implicates(clauses, variables, cap=3)


# --- closures read off the index ------------------------------------------------

def _closure_by_entailment(pi, tag):
    """{L over the universe : I, t |= L}, literal by literal."""
    universe = set(pi.fluents) | {l.fluent for l in tag}
    return frozenset(Literal(f, v) for f in universe for v in (False, True)
                     if reference_entails_literal(pi, tag, Literal(f, v)))


def _check_closure(pi, tag):
    expected = _closure_by_entailment(pi, tag)
    assert pi.closure(tag) == expected, sorted(tag)
    # a second call computes the same answer
    assert pi.closure(frozenset(tag)) == expected


def test_closure_matches_entailment_on_random_pi_sets():
    rng = random.Random(11)
    checked = {"empty": 0, "complementary": 0, "foreign": 0,
               "inconsistent": 0, "random": 0}
    for _ in range(300):
        variables = [f"v{i}" for i in range(rng.randint(1, 6))]
        cnf = random_cnf(rng, variables, max_clauses=5)
        try:
            pi = prime_implicates(cnf, variables)
        except InconsistentInit:
            continue
        pool = variables + ["x", "y"]  # x, y are outside pi.fluents
        tags = {"empty": EMPTY_TAG}
        tags["random"] = frozenset(
            Literal(v, rng.random() < 0.5)
            for v in rng.sample(variables, rng.randint(1, len(variables))))
        v = rng.choice(pool)
        tags["complementary"] = frozenset(
            [pos(v), neg(v), Literal(rng.choice(pool), rng.random() < 0.5)])
        tags["foreign"] = frozenset(
            Literal(v, rng.random() < 0.5)
            for v in rng.sample(pool, rng.randint(1, 3))) | {pos("x")}
        if pi.nonunit_clauses or pi.units:
            c = rng.choice(sorted(pi.clauses, key=sorted))
            tags["inconsistent"] = frozenset(l.negate() for l in c)
        for kind, tag in tags.items():
            _check_closure(pi, tag)
            checked[kind] += 1
    assert all(checked.values()), checked


def test_closure_of_inconsistent_tag_is_the_universe():
    pi = prime_implicates([frozenset([pos("p"), pos("q")])], ["p", "q"])
    tag = frozenset([neg("p"), neg("q")])  # the clause lies inside ~t
    assert pi.closure(tag) == frozenset(
        Literal(f, v) for f in ("p", "q") for v in (False, True))
    assert not pi.tag_consistent(tag)
    tag = frozenset([pos("p"), neg("p"), pos("z")])
    assert pi.closure(tag) == frozenset(
        Literal(f, v) for f in ("p", "q", "z") for v in (False, True))


def test_closure_with_clauses_outside_the_fluents():
    # z occurs in I but not among the fluents: its literals enter a
    # closure only when the tag mentions z
    pi = PICNF([frozenset([pos("z")]), frozenset([pos("a"), neg("z")]),
                frozenset([pos("a"), pos("b")])], ["a", "b"])
    for tag in (EMPTY_TAG, frozenset([pos("z")]), frozenset([neg("a")]),
                frozenset([neg("z"), neg("b")])):
        _check_closure(pi, tag)


# --- components ------------------------------------------------------------------

def _components_by_brute_force(pi):
    """fluent -> the least fluent of its class, where each non-unit
    clause in turn merges the classes its fluents meet into one."""
    classes = [{f} for f in set(pi.fluents)
               | {l.fluent for c in pi.clauses for l in c}]
    for c in pi.nonunit_clauses:
        fluents = {l.fluent for l in c}
        meeting = [k for k in classes if k & fluents]
        classes = [k for k in classes if not k & fluents]
        classes.append(set().union(*meeting))
    return {f: min(k) for k in classes for f in k}


def test_components_match_a_brute_force_union():
    rng = random.Random(12)
    seen = {"joined": 0, "split": 0, "outside": 0}
    for _ in range(300):
        variables = [f"v{i}" for i in range(rng.randint(1, 6))]
        try:
            full = prime_implicates(random_cnf(rng, variables), variables)
        except InconsistentInit:
            continue
        # the same clauses with a universe that misses some of their fluents
        narrow = PICNF(full.clauses, rng.sample(variables,
                                                rng.randint(0, len(variables))))
        for pi in (full, narrow):
            want = _components_by_brute_force(pi)
            assert pi.component == want, sorted(pi.clauses, key=sorted)
            seen["joined"] += len(set(want.values())) < len(want)
            seen["split"] += len(set(want.values())) > 1
            seen["outside"] += not want.keys() <= set(pi.fluents)
    assert all(seen.values()), seen


# --- PICNF keeps no state past __init__ ---------------------------------------

PACKAGE = sorted((Path(__file__).resolve().parents[1] / "src" / "kplan")
                 .glob("*.py"))


MUTATORS = {"add", "append", "clear", "discard", "extend", "insert", "pop",
            "popitem", "remove", "setdefault", "update"}


def picnf_state_writes(source: str):
    """(function, line) of each store to an attribute of a PICNF, or into
    one, by assignment, ``del`` or a mutating method call: in a method of
    class ``PICNF`` other than ``__init__`` through ``self``, and in any
    function through a name ``pi``, a parameter annotated ``PICNF`` or an
    attribute ``.pi`` (``ctx.pi``)."""
    found = {}

    def stored(node):
        """The expressions that ``node`` stores to or into."""
        if isinstance(node, (ast.Assign, ast.Delete)):
            return node.targets
        if isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            return [node.target]
        if isinstance(node, ast.Call) and \
                isinstance(node.func, ast.Attribute) and \
                node.func.attr in MUTATORS:
            return [node.func.value]
        return []

    def through_picnf(target, names):
        """Some attribute on the chain of ``target`` (through attributes,
        items and calls, not into indexes or arguments) is taken of a
        PICNF."""
        if isinstance(target, (ast.Tuple, ast.List)):
            return any(through_picnf(t, names) for t in target.elts)
        if isinstance(target, ast.Starred):
            return through_picnf(target.value, names)
        while isinstance(target, (ast.Attribute, ast.Subscript, ast.Call)):
            if isinstance(target, ast.Call):
                target = target.func
                continue
            owner = target.value
            if isinstance(target, ast.Attribute) and (
                    isinstance(owner, ast.Name) and owner.id in names or
                    isinstance(owner, ast.Attribute) and owner.attr == "pi"):
                return True
            target = owner
        return False

    def scan(fn, names):
        names = names | {arg.arg for arg in fn.args.args
                         if arg.annotation is not None
                         and "PICNF" in ast.unparse(arg.annotation)}
        for node in ast.walk(fn):
            if any(through_picnf(t, names) for t in stored(node)):
                found.setdefault(node.lineno, fn.name)

    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef) and node.name == "PICNF":
            for fn in node.body:
                if isinstance(fn, ast.FunctionDef) and fn.name != "__init__":
                    scan(fn, {"self", "pi"})
        elif isinstance(node, ast.FunctionDef):
            scan(node, {"pi"})
    return sorted((fn, line) for line, fn in found.items())


def test_the_state_scan_finds_cache_writes():
    source = ("class PICNF:\n"
              "    def __init__(self):\n"
              "        self.cache = {}\n"
              "    def closure(self, t):\n"
              "        self.cache[t] = out = frozenset(t)\n"
              "        return out\n"
              "    def forget(self):\n"
              "        self.cache.clear()\n"
              "def width(ci, L, pi, view: 'PICNF'):\n"
              "    known = pi.widths[ci] = 1\n"
              "    view.seen = {L}\n"
              "    ctx.pi.memo.setdefault(L, known)\n"
              "    local = {}\n"
              "    local[L] = pi.closure(L)\n"
              "    local.setdefault(pi.component[L], []).append(L)\n"
              "    a, (b, pi.x) = 1, (2, 3)\n")
    assert picnf_state_writes(source) == [
        ("closure", 5), ("forget", 8), ("width", 10), ("width", 11),
        ("width", 12), ("width", 16)]


def test_picnf_keeps_no_state():
    """``PICNF`` is a function of its clauses and fluents: nothing but
    ``__init__`` writes its attributes, so no query answer depends on the
    queries asked before it, and no cache grows for as long as a
    ``Context`` lives."""
    writes = {p.name: picnf_state_writes(p.read_text()) for p in PACKAGE}
    assert {name: w for name, w in writes.items() if w} == {}


# --- PICNF is built only from the full prime-implicate set ---------------------

def picnf_builders(source: str):
    """The names of the functions (``<module>`` at the top level) that call
    ``PICNF(...)`` or ``<x>.PICNF(...)``, one per call."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                func = child.func
                name = func.id if isinstance(func, ast.Name) else \
                    getattr(func, "attr", None)
                if name == "PICNF":
                    found.append(owner)
            inner = child.name if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)) else owner
            visit(child, inner)

    visit(ast.parse(source), "<module>")
    return found


def test_the_scan_finds_a_second_picnf_construction():
    source = ("from .pi import PICNF\n"
              "from . import pi\n"
              "def prime_implicates(clauses, fluents):\n"
              "    return PICNF(clauses, fluents)\n"
              "def shortcut(clauses, fluents):\n"
              "    return pi.PICNF(clauses, fluents)\n"
              "DEFAULT = PICNF((), ())\n")
    assert picnf_builders(source) == ["prime_implicates", "shortcut",
                                      "<module>"]


def test_picnf_is_built_only_by_prime_implicates():
    """``PICNF.models`` and ``merge_valid`` are exact only over the full set
    of prime implicates over the problem's fluents, which
    ``prime_implicates`` computes; any other construction could hold a
    clause set that is not in PI form."""
    builders = {p.name: picnf_builders(p.read_text()) for p in PACKAGE}
    assert {name: owners for name, owners in builders.items() if owners} \
        == {"pi.py": ["prime_implicates"]}
