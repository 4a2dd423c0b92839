"""Input language: parsing, grounding, emission round-trips."""

import copy
import random

import pytest

from kplan import (PddlSyntaxError, UnsupportedFeature, build_context, ktm,
                   neg, pos, spec_ki)
from kplan.pddl import (
    _tokenize,
    emit_classical,
    emit_plan_text,
    ground,
    load,
    load_classical,
    parse,
    parse_plan_text,
    parse_sexprs,
)
from kplan import KplanError, generators

from conftest import SMALL_INSTANCES, reference_tokenize


DOMAIN = """
(define (domain toy)
  (:requirements :strips :typing :conditional-effects)
  (:types loc)
  (:predicates (at ?l - loc) (seen ?l - loc) (done))
  (:action look
    :parameters (?l - loc)
    :precondition (and)
    :effect (when (at ?l) (seen ?l)))
  (:action sweep
    :parameters ()
    :precondition (and)
    :effect (forall (?l - loc) (when (seen ?l) (done))))
)
"""

PROBLEM = """
(define (problem toy-1)
  (:domain toy)
  (:objects a b - loc)
  (:init (oneof (at a) (at b)) (not (done)) (unknown (seen a))
         (not (seen b)))
  (:goal (done))
)
"""


def test_parse_and_ground_toy():
    problem = load(DOMAIN, PROBLEM)
    assert problem.fluents == {"at-a", "at-b", "seen-a", "seen-b", "done"}
    look_a = problem.action_by_name("look-a")
    assert len(look_a.rules) == 1
    (r,) = look_a.rules
    assert r.condition == frozenset([pos("at-a")]) and r.effect == pos("seen-a")
    sweep = problem.action_by_name("sweep")
    assert len(sweep.rules) == 2  # forall expanded over both locations
    # oneof becomes the big disjunction plus pairwise exclusions
    assert frozenset([pos("at-a"), pos("at-b")]) in problem.init
    assert frozenset([neg("at-a"), neg("at-b")]) in problem.init
    # 'unknown' records the fluent as mentioned-but-unconstrained
    assert frozenset([pos("seen-a"), neg("seen-a")]) in problem.init
    assert problem.goal == frozenset([pos("done")])


def test_syntax_errors_carry_positions():
    with pytest.raises(PddlSyntaxError) as exc:
        parse("(define (domain d)", "(define (problem p) (:domain d))")
    assert exc.value.line is not None
    with pytest.raises(PddlSyntaxError):
        load("(define (domain d) (:predicates (p)) )",
             "(define (problem x) (:domain d) (:init (q)) (:goal (p)))")


@pytest.mark.parametrize("domain_section,message", [
    ("(:domain other)", "the problem is for domain 'other', not 'toy'"),
    ("(:domain)", "':domain' takes one name"),
    ("", "expected a (:domain NAME) section")])
def test_a_problem_must_name_its_domain(domain_section, message):
    problem = PROBLEM.replace("(:domain toy)", domain_section)
    with pytest.raises(PddlSyntaxError) as exc:
        load(DOMAIN, problem)
    assert str(exc.value).startswith(message)
    assert exc.value.line == (3 if domain_section else 2)


@pytest.mark.parametrize("domain,problem,message", [
    ("(define)", PROBLEM, "expected (define (domain NAME) ...)"),
    ("(define (domain))", PROBLEM, "expected (define (domain NAME) ...)"),
    (DOMAIN, "(define (problem) (:domain toy))",
     "expected (define (problem NAME) ...)"),
    (DOMAIN, "(define (domain toy))", "expected (define (problem NAME) ...)")])
def test_a_define_header_needs_its_kind_and_name(domain, problem, message):
    with pytest.raises(PddlSyntaxError) as exc:
        load(domain, problem)
    assert str(exc.value).startswith(message)


def test_an_action_needs_a_name():
    dom = "(define (domain d) (:predicates (p)) (:action))"
    prob = "(define (problem d1) (:domain d) (:init) (:goal (p)))"
    with pytest.raises(PddlSyntaxError) as exc:
        load(dom, prob)
    assert str(exc.value).startswith("expected an action name")


def test_undeclared_and_type_errors():
    dom = """(define (domain d) (:requirements :typing) (:types t)
             (:predicates (p ?x - t))
             (:action a :parameters (?x - t) :precondition (and)
                      :effect (p ?x)))"""
    prob = """(define (problem d1) (:domain d) (:objects o1 - t)
              (:init) (:goal (p o1)))"""
    assert load(dom, prob).fluents == {"p-o1"}
    bad = prob.replace("(p o1)", "(q o1)")
    with pytest.raises(PddlSyntaxError):
        load(dom, bad)


# :types, :objects, and the fluents they ground to beside any-home,
# at-home and lit-home (home is a room, and every object is an ``any``)
HIERARCHIES = {
    # a place is a room or a hall; an object of no type is an object only
    "one-level": ("room hall - place", "kitchen - room corridor - hall box",
                  "at-kitchen at-corridor lit-kitchen "
                  "any-box any-corridor any-kitchen"),
    "three-level-chain": ("room - hall hall - place",
                          "kitchen - room corridor - hall box",
                          "at-kitchen at-corridor lit-kitchen "
                          "any-box any-corridor any-kitchen"),
    # every member of a cycle is below every other
    "cycle": ("room - place place - room",
              "kitchen - room corridor - place box",
              "at-kitchen at-corridor lit-kitchen lit-corridor "
              "any-box any-corridor any-kitchen"),
    # place is only a parent, and hall is not declared at all
    "undeclared-parent": ("room - place", "kitchen - room corridor - hall box",
                          "at-kitchen lit-kitchen "
                          "any-box any-corridor any-kitchen"),
    # every object of a type below object is a place, but yard is not
    "object-under-a-type": ("object - place hall - yard room",
                            "kitchen - room corridor - hall box",
                            "at-kitchen at-box lit-kitchen "
                            "any-box any-corridor any-kitchen"),
    "an-object-under-two-types": (
        "room hall - place",
        "kitchen - room kitchen - hall corridor - hall box",
        "at-kitchen at-corridor lit-kitchen "
        "any-box any-corridor any-kitchen"),
    # corridor's first type, hall, is not below place; its second is
    "object-under-a-type-and-two-types": (
        "object - place hall - yard room",
        "corridor - hall corridor - room box - yard",
        "at-corridor lit-corridor any-box any-corridor"),
}


@pytest.mark.parametrize("types,objects,fluents", HIERARCHIES.values(),
                         ids=HIERARCHIES)
def test_comments_constants_and_a_type_hierarchy(types, objects, fluents):
    dom = f"""; a domain with a constant
    (define (domain d) ; the header
      (:types {types})
      (:constants home - room) ; one room every problem has
      (:predicates (at ?p - place) (lit ?r - room) (any ?o))
      (:action go :parameters (?r - room) :precondition (and)
               :effect (at ?r)))"""
    prob = f"""(define (problem d1) (:domain d)
      (:objects {objects})
      (:init (not (at home))) (:goal (at home)))"""
    problem = load(dom, prob)
    assert problem.fluents == {"any-home", "at-home", "lit-home",
                               *fluents.split()}
    assert {a.name for a in problem.actions} == {
        "go-" + f[len("lit-"):] for f in problem.fluents
        if f.startswith("lit-")}


def test_contradictory_conditions_and_preconditions_are_pruned():
    dom = """(define (domain d) (:types t) (:predicates (p ?x - t) (q))
      (:action a :parameters (?x ?y - t)
               :precondition (and (p ?x) (not (p ?y)))
               :effect (and (when (and (p ?x) (not (p ?x))) (q))
                            (when (p ?y) (not (q))))))"""
    prob = """(define (problem d1) (:domain d) (:objects o1 o2 - t)
      (:init (p o1) (not (p o2)) (not (q))) (:goal (q)))"""
    problem = load(dom, prob)
    # a-o1-o1 and a-o2-o2 can never apply; the first when never holds
    assert {a.name for a in problem.actions} == {"a-o1-o2", "a-o2-o1"}
    assert [r.effect for r in problem.action_by_name("a-o1-o2").rules] \
        == [neg("q")]


def test_an_unbalanced_close_is_a_syntax_error():
    with pytest.raises(PddlSyntaxError, match="unbalanced '\\)'") as exc:
        parse_sexprs("(a (b))\n  )")
    assert (exc.value.line, exc.value.column) == (2, 3)


@pytest.mark.parametrize("effect,init,message", [
    ("(forall (?x - t) (p ?x) (p ?x))", "",
     "'forall' takes a variable list and an effect"),
    ("(forall (?x ?y - t) (p ?x))", "",
     "one variable per 'forall' is supported"),
    ("(oneof (p o1))", "", "'oneof' needs at least two outcomes"),
    ("(p o1)", "(oneof (p o1))", "'oneof' needs at least two members")])
def test_forall_and_oneof_arity(effect, init, message):
    dom = f"""(define (domain d) (:types t) (:predicates (p ?x - t))
      (:action a :parameters () :precondition (and) :effect {effect}))"""
    prob = f"""(define (problem d1) (:domain d) (:objects o1 o2 - t)
      (:init {init}) (:goal (p o1)))"""
    with pytest.raises(PddlSyntaxError) as exc:
        load(dom, prob)
    assert str(exc.value).startswith(message)


@pytest.mark.parametrize("old,new,message", [
    (":effect (p)", ":effect (increase (p) 1)",
     "numeric effect 'increase' is not supported"),
    ("(:predicates (p))", "(:predicates (p)) (:functions (cost))",
     "section ':functions' is not supported"),
    ("(:predicates (p))", "(:predicates (p)) (:derived (p) (p))",
     "section ':derived' is not supported"),
    (":effect (p)", ":effect (p) :observe (p)",
     "action keyword ':observe' is not supported"),
    (":effect (p)", ":effect (oneof (p) (when (p) (p)))",
     "nested conditions inside 'oneof' in action a")])
def test_unsupported_features_are_refused(old, new, message):
    dom = """(define (domain d) (:predicates (p))
      (:action a :parameters () :precondition (and) :effect (p)))"""
    prob = "(define (problem d1) (:domain d) (:init) (:goal (p)))"
    assert load(dom, prob).fluents == {"p"}
    with pytest.raises(UnsupportedFeature) as exc:
        load(dom.replace(old, new), prob)
    assert str(exc.value) == message


@pytest.mark.parametrize("old,new,message", [
    (":effect (q)", ":effect (oneof (p) (q))",
     "classical input cannot contain 'oneof'"),
    ("(:init (p))", "(:init (not (q)))",
     "classical :init must list positive ground atoms"),
    ("(:init (p))", "(:init (or (p) (q)))",
     "classical :init must list positive ground atoms"),
    ("(:goal (q))", "(:goal (or (p) (q)))",
     "classical goals must be literal conjunctions")])
def test_load_classical_refuses_what_emit_classical_never_writes(
        old, new, message):
    dom = """(define (domain d) (:predicates (p) (q))
      (:action a :parameters () :precondition (p) :effect (q)))"""
    prob = "(define (problem d1) (:domain d) (:init (p)) (:goal (q)))"
    assert load_classical(dom, prob).init == {pos("p")}
    with pytest.raises(UnsupportedFeature) as exc:
        load_classical(dom.replace(old, new), prob.replace(old, new))
    assert str(exc.value) == message


def test_oneof_effect_grounding():
    dom = """(define (domain d) (:predicates (p) (q) (moved))
             (:action a :parameters () :precondition (and)
                      :effect (and (moved) (oneof (p) (q)))))"""
    prob = """(define (problem d1) (:domain d)
              (:init (not (p)) (not (q)) (not (moved))) (:goal (p)))"""
    problem = load(dom, prob)
    a = problem.action_by_name("a")
    assert not a.deterministic
    (nr,) = a.nondet_rules
    assert len(nr.outcomes) == 2
    assert not problem.deterministic


def test_goal_cnf_parsing():
    dom = """(define (domain d) (:predicates (p) (q))
             (:action a :parameters () :precondition (and) :effect (p)))"""
    prob = """(define (problem d1) (:domain d) (:init)
              (:goal (and (or (p) (q)) (p))))"""
    problem = load(dom, prob)
    assert problem.goal == frozenset([pos("p")])
    assert problem.goal_clauses == (frozenset([pos("p"), pos("q")]),)
    # a goal is read like a precondition: 'and' nests, () is empty
    for formula in ("(and (and (p)) (and) (not (q)))", "()", "(and)"):
        problem = load(dom.replace(":precondition (and)",
                                   ":precondition " + formula),
                       prob.replace("(and (or (p) (q)) (p))", formula))
        assert problem.goal == problem.action_by_name("a").preconditions
    nested = prob.replace("(and (or (p) (q)) (p))",
                          "(and (and (or (p) (q))) (and (p)))")
    assert load(dom, nested) == load(dom, prob)


def test_emit_classical_round_trip(tiny):
    ctx = build_context(tiny)
    K = ktm(tiny, spec_ki(ctx, 1), ctx)
    domain_text, problem_text = emit_classical(K)
    back = load_classical(domain_text, problem_text)
    assert back.fluents == K.fluents
    assert back.init == K.init
    assert back.goal == K.goal
    assert back.merges == K.merges and K.merges
    assert {a.name for a in back.actions} == {a.name for a in K.actions}
    for a in K.actions:
        b = back.action_by_name(a.name)
        assert set(b.rules) == set(a.rules)
        assert b.preconditions == a.preconditions


def test_emit_classical_is_deterministic(tiny):
    ctx = build_context(tiny)
    K = ktm(tiny, spec_ki(ctx, 1), ctx)
    assert emit_classical(K) == emit_classical(ktm(tiny, spec_ki(ctx, 1), ctx))


def test_generators_all_load_and_ground():
    for family, params in (("safe", (4,)), ("bomb", (3, 2)), ("ring", (3,)),
                           ("square-center", (3,)), ("corners-square", (4,)),
                           ("sortnet", (3,)), ("disjtoy", (4,)),
                           ("sgripper", (1,))):
        domain_text, problem_text = generators.generate(family, params)
        problem = load(domain_text, problem_text)
        assert problem.fluents and problem.actions
    with pytest.raises(ValueError):
        generators.generate("nope", (1,))
    with pytest.raises(ValueError):
        generators.generate("safe", (1,))


def test_grounding_interns_literals_and_conditions():
    # bomb-16-16 repeats each of its 64 literals and 33 conditions and
    # preconditions across its ground actions: one object per value
    texts = generators.generate("bomb", (16, 16))
    problem = load(*texts)
    lits = [l for c in problem.init for l in c] + list(problem.goal)
    conditions = []
    for a in problem.actions:
        conditions += [a.preconditions, *(r.condition for r in a.rules)]
        lits += [*a.preconditions, *(r.effect for r in a.rules)]
        lits += [l for r in a.rules for l in r.condition]
    assert len(set(map(id, lits))) == len(set(lits)) == 64
    assert len(set(map(id, conditions))) == len(set(conditions)) == 33
    assert load(*texts) == problem


def _mutate(tree, rng):
    """The text of ``tree`` (a list of s-expressions) after one to three
    edits, each deleting, doubling or replacing an element of a list by a
    node from anywhere in the tree."""
    tree = copy.deepcopy(tree)
    for _ in range(rng.randint(1, 3)):
        lists, stack = [], [tree]
        while stack:
            node = stack.pop()
            lists.append(node)
            stack += [x for x in node if isinstance(x, list)]
        nonempty = [l for l in lists if l]
        if not nonempty:
            break
        target = rng.choice(nonempty)
        i = rng.randrange(len(target))
        edit = rng.randrange(3)
        if edit == 0:
            del target[i]
        elif edit == 1:
            target.insert(i, copy.deepcopy(target[i]))
        else:
            target[i] = copy.deepcopy(rng.choice(
                [x for l in lists for x in l]))

    def show(node):
        if isinstance(node, list):
            return "(" + " ".join(map(show, node)) + ")"
        return node
    return " ".join(map(show, tree))


def test_mutated_inputs_raise_only_kplan_errors():
    # malformed input ends as a KplanError (exit 2 with a report), never
    # as another exception
    def plain(node):
        return list(map(plain, node)) if isinstance(node, list) \
            else str(node)

    texts = [generators.generate(family, params) for family, params in (
        ("safe", (4,)), ("bomb", (3, 2)), ("ring", (3,)),
        ("square-center", (3,)), ("corners-square", (4,)),
        ("sortnet", (3,)), ("disjtoy", (4,)), ("sgripper", (1,)))]
    trees = [[plain(parse_sexprs(t)) for t in pair] for pair in texts]
    rng = random.Random(1)
    for _ in range(1500):
        k, side = rng.randrange(len(texts)), rng.randrange(2)
        pair = list(texts[k])
        pair[side] = _mutate(trees[k][side], rng)
        try:
            load(*pair)
        except KplanError:
            pass


def test_the_tokenizer_matches_the_reference_scanner():
    # tokens and their positions against the character-by-character
    # scanner: on every generator's texts, on tree mutations of them as
    # above, and on insertions of separators, line breaks, comments,
    # parentheses and characters that are not separators (VT, FF, e-acute)
    def plain(node):
        return list(map(plain, node)) if isinstance(node, list) \
            else str(node)

    texts = [DOMAIN, PROBLEM]
    for family, params in SMALL_INSTANCES:
        texts += generators.generate(family, params)
    trees = [plain(parse_sexprs(t)) for t in texts]
    rng = random.Random(2)
    corpus = texts + [_mutate(rng.choice(trees), rng) for _ in range(300)]
    for _ in range(300):
        text = rng.choice(texts)
        for _ in range(rng.randint(1, 6)):
            i = rng.randint(0, len(text))
            char = rng.choice(" \t\r\n\x0b\x0c;;()\u00e9x")
            text = text[:i] + char + text[i:]
        corpus.append(text)
    for text in corpus:
        assert [(str(t), t.line, t.column) for t in _tokenize(text)] == \
            list(reference_tokenize(text)), text


def test_plan_text_round_trip():
    steps = ("pick-l1", "merge__at-l3__deadbeef", "drop-l3")
    text = emit_plan_text(steps)
    assert parse_plan_text(text) == steps
    assert parse_plan_text("; comment\n  (a)\n\nb\n") == ("a", "b")
    with pytest.raises(PddlSyntaxError):
        parse_plan_text("(two words)")


@pytest.mark.parametrize("step", ["()", "(a", "(a)(b)"])
def test_plan_text_rejects_malformed_steps(step):
    with pytest.raises(PddlSyntaxError, match=r"\(line 2, column 1\)"):
        parse_plan_text(f"(a)\n{step}\n")
