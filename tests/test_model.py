"""Unit tests for the ground representation and exact progression."""

import random

import pytest

from kplan import (
    InconsistentResult,
    NotAPossibleInitialState,
    Plan,
    PreconditionViolation,
    apply,
    conformant_problem,
    neg,
    pos,
    restrict,
    run_plan,
)
from kplan import generators, pddl
from kplan.analysis import build_context
from kplan.model import (
    ClassicalProblem,
    Literal,
    Rule,
    sorted_lits,
    is_tautology,
    lits_consistent,
    state_satisfies,
)
from kplan.planner import Grounded
from kplan.translate import (cnf_goal_compile, inject_reset_effects, ktm,
                             nondet_compile, spec_ki, spec_kmodels)
from kplan.verify import Verdict, build_basis

from conftest import action, rule


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
    bad = rule([pos("p"), neg("p")], pos("q"))
    with pytest.raises(ValueError, match="complementary pair"):
        conformant_problem(["p", "q"], [], [action("a", rules=[bad])],
                           [pos("q")])


def test_conformant_problem_rejects_an_inconsistent_rule_condition():
    # Rule itself does not check; a problem checks every rule it is given
    bad = Rule(frozenset({pos("p"), neg("p")}), pos("q"))
    with pytest.raises(ValueError, match="complementary pair"):
        conformant_problem(["p", "q"], [], [action("a", rules=[bad])],
                           [pos("q")])


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


# --- record semantics -------------------------------------------------------

def test_literals_order_by_fluent_negatives_first():
    lits = [pos("b"), neg("a"), pos("a"), neg("b")]
    assert sorted(lits) == [neg("a"), pos("a"), neg("b"), pos("b")]
    assert neg("p") < pos("p") < neg("q") < pos("q")


def test_literals_print_as_p_and_not_p():
    assert (str(pos("p")), repr(pos("p"))) == ("p", "p")
    assert (str(neg("p")), repr(neg("p"))) == ("~p", "~p")
    assert repr((pos("p"), neg("q"))) == "(p, ~q)"


def test_equal_literals_hash_equal():
    built = Literal("".join(["p", "q"]), True)
    assert built == pos("pq") and built is not pos("pq")
    assert hash(built) == hash(pos("pq"))
    assert len({built, pos("pq"), neg("pq")}) == 2


@pytest.mark.parametrize("record,field", [
    (pos("p"), "positive"), (action("a"), "name"), (Plan(("a",)), "steps"),
    (Verdict(True), "valid"), (rule([], pos("p")), "effect")],
    ids=["Literal", "Action", "Plan", "Verdict", "Rule"])
def test_records_reject_assignment(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.extra = 1


def test_plan_length_and_truth_are_its_steps():
    assert len(Plan(("a", "b"))) == 2
    assert not Plan(())
    assert Plan(("a",))


def test_a_verdict_is_true_exactly_when_valid():
    assert not Verdict(False)
    assert not Verdict(False, "goal literals not achieved", None, 3)
    assert Verdict(True)


def keyed_containers(*roots):
    """Every dict, set and frozenset reachable from the roots through
    containers and the attributes of kplan objects."""
    seen, stack = set(), list(roots)
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, dict):
            yield obj
            stack.extend(obj.items())
        elif isinstance(obj, (set, frozenset)):
            yield obj
            stack.extend(obj)
        elif isinstance(obj, (tuple, list)):
            stack.extend(obj)
        elif type(obj).__module__.startswith("kplan.") \
                and hasattr(obj, "__dict__"):
            stack.extend(vars(obj).values())


def built_objects(family, params, spec_of):
    """The analysis, translation, search and basis objects of one
    instance."""
    texts = generators.generate(family, params)
    problem = pddl.load(*texts)
    compiled, resets = nondet_compile(cnf_goal_compile(problem), 1)
    ctx = build_context(compiled)
    spec = spec_of(ctx)
    K = inject_reset_effects(ktm(compiled, spec, ctx, optimized=True), ctx,
                             spec, resets)
    return [pddl.parse(*texts), problem, compiled, resets, ctx, spec, K,
            Grounded(K), build_basis(compiled, spec, ctx)]


@pytest.mark.parametrize("family,params,spec_of", [
    ("bomb", (3, 2), lambda ctx: spec_ki(ctx, 1)),
    ("sortnet", (3,), spec_kmodels),
    ("sgripper", (1,), lambda ctx: spec_ki(ctx, 1))],
    ids=["bomb-3-2", "sortnet-3", "sgripper-1"])
def test_no_container_mixes_tuple_types(family, params, spec_of):
    # a Literal equals the plain tuple (fluent, positive), and two record
    # types with equal fields equal each other, so one set or dict key
    # space must hold tuples of a single type
    checked = 0
    for container in keyed_containers(*built_objects(family, params,
                                                     spec_of)):
        kinds = {type(k) for k in container if isinstance(k, tuple)}
        assert len(kinds) <= 1, kinds
        checked += Literal in kinds
    assert checked > 0
