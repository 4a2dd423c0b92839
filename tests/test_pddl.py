"""Input language: parsing, grounding, emission round-trips."""

import pytest

from kplan import (PddlSyntaxError, UnsupportedFeature, build_context, ktm,
                   neg, pos, spec_ki)
from kplan.pddl import (
    emit_classical,
    emit_plan_text,
    ground,
    load,
    load_classical,
    parse,
    parse_plan_text,
)
from kplan import generators


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


def test_emit_classical_round_trip(tiny):
    ctx = build_context(tiny)
    K = ktm(tiny, spec_ki(ctx, 1), ctx)
    domain_text, problem_text = emit_classical(K)
    back = load_classical(domain_text, problem_text)
    assert back.fluents == K.fluents
    assert back.init == K.init
    assert back.goal == K.goal
    assert back.merges == K.merges
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


def test_plan_text_round_trip():
    steps = ("pick-l1", "merge__at-l3__deadbeef", "drop-l3")
    text = emit_plan_text(steps)
    assert parse_plan_text(text) == steps
    assert parse_plan_text("; comment\n  (a)\n\nb\n") == ("a", "b")
    with pytest.raises(PddlSyntaxError):
        parse_plan_text("(two words)")
