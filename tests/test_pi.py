"""Prime-implicate engine tests against a truth-table oracle."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kplan import InconsistentInit, Merge, PiBlowup, prime_implicates
from kplan.errors import ValidityUndecidedAtCap
from kplan.model import Literal, is_tautology, neg, pos
from kplan.pi import DEFAULT_MODEL_CAP, EMPTY_TAG, PICNF

from conftest import reference_enumerate_states, states_until_cap


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
    assert disjunctive.entails_literal(EMPTY_TAG, pos("q"))
    assert not disjunctive.entails_literal(EMPTY_TAG, pos("p"))
    assert disjunctive.entails_literal(frozenset([neg("p")]), pos("r"))
    assert disjunctive.entails_literal(frozenset([neg("r")]), pos("p"))
    # anything follows from an I-inconsistent tag
    assert disjunctive.entails_literal(frozenset([neg("q")]), pos("p"))


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
    forced = list(disjunctive.models(["p", "q", "r"], forced=[neg("p")]))
    assert forced == [frozenset([neg("p"), pos("q"), pos("r")])]


def test_models_match_reference_enumeration():
    """models = the enumeration over I's clauses within the variables plus
    ``extra``, with the forced literals on the variables pinned."""
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
        extra = random_cnf(rng, universe, 2) if rng.random() < 0.5 else []
        forced = [Literal(f, rng.random() < 0.5)
                  for f in rng.sample(universe + ["x"], rng.randint(0, 2))]
        if rng.random() < 0.1:
            forced += [neg(variables[0]), pos(variables[0])]
        cap = rng.choice([None, 2, DEFAULT_MODEL_CAP])
        within = [c for c in pi.clauses
                  if all(l.fluent in variables for l in c)]
        want = states_until_cap(
            reference_enumerate_states, within + extra, variables,
            forced=[l for l in forced if l.fluent in variables], cap=cap)
        got = states_until_cap(pi.models, variables, extra=extra,
                               forced=forced, cap=cap)
        assert got == want
        checked += 1
    assert checked >= 150


def test_merge_validity(disjunctive):
    good = Merge(frozenset([frozenset([pos("p")]), frozenset([pos("r")])]),
                 pos("q"))
    assert disjunctive.merge_valid(good)
    bad = Merge(frozenset([frozenset([pos("p")])]), pos("q"))
    assert not disjunctive.merge_valid(bad)


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
                     if pi.entails_literal(tag, Literal(f, v)))


def _check_closure(pi, tag):
    expected = _closure_by_entailment(pi, tag)
    assert pi.closure(tag) == expected, sorted(tag)
    # the second call is served from the cache
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
