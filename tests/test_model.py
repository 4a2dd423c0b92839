"""Unit tests for the ground representation and exact progression."""

import random

import pytest

from kplan import (
    InconsistentResult,
    NotAPossibleInitialState,
    Plan,
    PreconditionViolation,
    action,
    apply,
    conformant_problem,
    neg,
    pos,
    restrict,
    rule,
    run_plan,
)
from kplan.model import (
    ClassicalProblem,
    Literal,
    Rule,
    sorted_lits,
    is_tautology,
    lits_consistent,
    state_satisfies,
)


def test_literal_basics():
    p = pos("p")
    assert p.negate() == neg("p")
    assert p.negate().negate() == p
    assert str(neg("p")) == "~p"
    assert neg("p").token == "not-p"
    # negatives sort before positives on the same fluent
    assert sorted([pos("p"), neg("p")]) == [neg("p"), pos("p")]


def test_consistency_and_tautology():
    assert lits_consistent([pos("p"), pos("q")])
    assert not lits_consistent([pos("p"), neg("p")])
    assert is_tautology(frozenset([pos("p"), neg("p")]))
    assert not is_tautology(frozenset([pos("p"), neg("q")]))


def test_rule_rejects_inconsistent_condition():
    with pytest.raises(ValueError):
        rule([pos("p"), neg("p")], pos("q"))


def test_apply_add_delete_semantics():
    a = action("a", rules=[rule([pos("p")], neg("q")),
                           rule([neg("p")], pos("q"))])
    s = frozenset([pos("p"), pos("q")])
    nxt = apply(s, a)
    assert nxt == frozenset([pos("p"), neg("q")])
    # a fluent untouched by any firing rule persists
    s2 = frozenset([neg("p"), neg("q")])
    assert apply(s2, a) == frozenset([neg("p"), pos("q")])


def test_apply_precondition_violation():
    a = action("a", preconditions=[pos("p")], rules=[rule([], pos("q"))])
    with pytest.raises(PreconditionViolation):
        apply(frozenset([neg("p"), neg("q")]), a)


def test_apply_inconsistent_result():
    a = action("a", rules=[rule([pos("p")], pos("q")),
                           rule([pos("p")], neg("q"))])
    with pytest.raises(InconsistentResult):
        apply(frozenset([pos("p"), pos("q")]), a)


def test_conformant_problem_validation():
    with pytest.raises(ValueError, match="undeclared"):
        conformant_problem(["p"], [[pos("p")]], [], [pos("q")])
    with pytest.raises(ValueError, match="duplicate"):
        conformant_problem(["p"], [], [action("a"), action("a")], [pos("p")])
    with pytest.raises(ValueError, match="empty clause"):
        conformant_problem(["p"], [[]], [], [pos("p")])


def test_classical_initial_state_closed_world():
    K = ClassicalProblem(frozenset(["p", "q"]), frozenset([pos("p")]),
                         (), frozenset([pos("p")]))
    assert K.initial_state() == frozenset([pos("p"), neg("q")])


def test_plan_stripping():
    plan = Plan(("a", "merge__m", "b"))
    assert plan.stripped() == ("a", "b")
    assert plan.stripped_length == 2
    assert len(plan) == 3
    # the rule is the name prefix alone
    assert Plan(("merge", "m__merge__x")).stripped() == ("merge", "m__merge__x")


def test_run_plan_reports_failures(tiny):
    from conftest import TINY_BAD, TINY_PLAN
    s = frozenset([pos("p"), pos("q"), neg("r")])
    K = restrict(tiny, s)
    good = run_plan(K, Plan(TINY_PLAN))
    assert good.applicable and good.achieved_goal
    bad = run_plan(K, Plan(TINY_BAD))
    assert bad.applicable and not bad.achieved_goal
    missing = run_plan(K, Plan(("nope",)))
    assert not missing.applicable and missing.failed_step == 0


def test_restrict_rejects_bad_states(tiny):
    # incomplete state
    with pytest.raises(NotAPossibleInitialState):
        restrict(tiny, frozenset([pos("p"), pos("q")]))
    # violates the initial clauses (q must be true)
    with pytest.raises(NotAPossibleInitialState):
        restrict(tiny, frozenset([pos("p"), neg("q"), neg("r")]))


def test_state_satisfies():
    s = frozenset([pos("p"), neg("q")])
    assert state_satisfies(s, [frozenset([pos("p"), pos("q")])])
    assert not state_satisfies(s, [frozenset([pos("q")])])


def test_lits_consistent_and_rule_order_agree_with_literal_order():
    rng = random.Random(5)
    lits = [Literal(f, v) for f in ("a", "b", "c", "d") for v in (False, True)]
    rules = set()
    for _ in range(400):
        chosen = [rng.choice(lits) for _ in range(rng.randint(0, 4))]
        consistent = all(l.negate() not in chosen for l in chosen)
        assert lits_consistent(chosen) == consistent
        if consistent:
            rules.add(rule(chosen, rng.choice(lits)))
    rules = list(rules)
    rng.shuffle(rules)
    assert sorted(rules, key=Rule.sort_key) == sorted(
        rules, key=lambda r: (sorted_lits(r.condition), r.effect))
