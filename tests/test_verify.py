"""Brute-force oracles: state enumeration, conformance, weak semantics,
belief search, bases."""

import random

import pytest

from kplan import (
    BasisStateNotFound,
    TooManyInitialStates,
    belief_bfs,
    build_basis,
    build_context,
    conformant_check,
    initial_states,
    ktm,
    Literal,
    Merge,
    make_spec,
    neg,
    pos,
    spec_k0,
    spec_ki,
    zero_approx_run,
)
from kplan.errors import UnsupportedFeature
from kplan import generators, pddl
from kplan.model import NondetRule, action, conformant_problem, rule
from kplan.pi import enumerate_models
from kplan.verify import ThreeValuedState, rel_state, zero_approx_step
from kplan.analysis import relevance

from conftest import (
    BENCH_INSTANCES,
    TINY_BAD,
    TINY_PLAN,
    all_sequences,
    classical_accepts,
    compiled_instance,
    random_suite,
    reference_enumerate_states,
    states_until_cap,
)


def test_initial_states_enumeration(tiny):
    states = initial_states(tiny)
    assert len(states) == 4  # q fixed true; p, r free
    assert all(pos("q") in s for s in states)
    with pytest.raises(TooManyInitialStates):
        initial_states(tiny, cap=3)


def test_conformant_check_verdicts(tiny):
    good = conformant_check(tiny, TINY_PLAN)
    assert good.valid and good.states_checked == 4
    bad = conformant_check(tiny, TINY_BAD)
    assert not bad.valid
    assert bad.failing_state is not None
    assert "goal" in bad.reason
    missing = conformant_check(tiny, ("nope",))
    assert not missing.valid and "unknown action" in missing.reason


def test_zero_approx_known_valid_and_invalid_plans():
    """Known initial units propagate; disjunctions do not."""
    problem = conformant_problem(
        ["p", "q", "r", "v"],
        [[pos("p")], [pos("r")]],
        [action("a", rules=[rule([pos("p")], pos("q")),
                            rule([pos("r")], neg("v"))]),
         action("b", rules=[rule([pos("q")], pos("v"))])],
        [pos("q"), pos("v")])
    assert zero_approx_run(problem, ("a", "b")).valid
    assert not zero_approx_run(problem, ("b",)).valid


def test_goal_clauses_are_checked_by_both_semantics():
    problem = conformant_problem(
        ["p", "q"], [],
        [action("a", rules=[rule([], pos("p"))]),
         action("b", rules=[rule([neg("p")], pos("q"))])],
        [], goal_clauses=[frozenset([pos("p"), pos("q")])])
    idle = conformant_check(problem, ())
    assert not idle.valid and "goal clauses not satisfied" in idle.reason
    assert idle.failing_state == frozenset([neg("p"), neg("q")])
    assert conformant_check(problem, ("a",)).valid
    assert conformant_check(problem, ("b",)).valid
    weak = zero_approx_run(problem, ())
    assert not weak.valid and "goal clauses not known" in weak.reason
    assert zero_approx_run(problem, ("a",)).valid
    # p | q holds after b in every state, but no literal of it is known
    assert not zero_approx_run(problem, ("b",)).valid


def test_zero_approx_cannot_use_disjunctions():
    """A conformant plan that needs case reasoning is rejected by the
    weak semantics (and by the basic translation)."""
    problem = conformant_problem(
        ["p", "q"],
        [[pos("p"), pos("q")]],
        [action("a", rules=[rule([pos("p")], pos("q"))])],
        [pos("q")])
    assert conformant_check(problem, ("a",)).valid
    assert not zero_approx_run(problem, ("a",)).valid
    assert not classical_accepts(ktm(problem, spec_k0()), ("a",))


def test_zero_approx_step_persistence():
    a = action("a", rules=[rule([pos("p")], neg("q"))])
    # q persists when the delete rule's condition is known false
    s = ThreeValuedState(frozenset([neg("p"), pos("q")]))
    assert zero_approx_step(s, a).known == frozenset([neg("p"), pos("q")])
    # q becomes unknown when the delete rule's condition is unknown
    s2 = ThreeValuedState(frozenset([pos("q")]))
    assert zero_approx_step(s2, a).value("q") is None
    # untouched fluents always persist
    s3 = ThreeValuedState(frozenset([pos("r"), pos("p")]))
    out = zero_approx_step(s3, a)
    assert out.value("r") is True and out.value("q") is False


def test_zero_approx_rejects_unknown_preconditions(tiny):
    guarded = conformant_problem(
        ["p", "g"], [],
        [action("a", preconditions=[pos("p")], rules=[rule([], pos("g"))])],
        [pos("g")])
    verdict = zero_approx_run(guarded, ("a",))
    assert not verdict.valid and "precondition" in verdict.reason


def test_belief_bfs_finds_shortest_plan(tiny):
    plan = belief_bfs(tiny, depth_cap=4)
    assert plan is not None and plan.steps == TINY_PLAN
    # the goal is unreachable within depth 1
    assert belief_bfs(tiny, depth_cap=1) is None


def test_belief_bfs_rejects_nondeterministic_actions():
    problem = conformant_problem(
        ["p", "q"], [[neg("p")], [neg("q")]],
        [action("a", nondet_rules=[NondetRule(
            frozenset(), (frozenset([pos("p")]), frozenset([pos("q")])))])],
        [pos("p")])
    with pytest.raises(UnsupportedFeature):
        belief_bfs(problem)


def test_belief_bfs_agrees_with_sequence_enumeration():
    """On tiny random problems, the shortest belief-space plan length must
    equal the shortest conformant sequence found by brute force."""
    from conftest import is_conformant
    for problem in random_suite(404, 10, max_fluents=4, max_actions=3):
        names = [a.name for a in problem.actions]
        brute = None
        for seq in all_sequences(names, 3):
            if is_conformant(problem, seq):
                brute = len(seq)
                break  # sequences come shortest-first
        plan = belief_bfs(problem, depth_cap=3)
        if brute is None:
            assert plan is None
        else:
            assert plan is not None and len(plan.steps) == brute


def test_rel_state(tiny):
    rel = relevance(tiny)
    s = frozenset([pos("p"), pos("q"), neg("r")])
    restricted = rel_state(s, pos("p"), rel)
    assert pos("q") in restricted and neg("r") not in restricted


def test_build_basis_on_disjunction():
    problem = conformant_problem(
        ["x1", "x2", "x3", "trg"],
        [[pos("x1"), pos("x2"), pos("x3")], [neg("trg")]],
        [action(f"go-{i}", rules=[rule([pos(f"x{i}")], pos("trg"))])
         for i in (1, 2, 3)],
        [pos("trg")])
    ctx = build_context(problem)
    spec = spec_ki(ctx, 1)
    basis = build_basis(problem, spec, ctx)
    assert len(basis.states) == 3
    assert len(initial_states(problem)) == 7
    # each basis state makes exactly one disjunct true
    for s in basis.states:
        assert sum(1 for i in (1, 2, 3) if pos(f"x{i}") in s) == 1
    # provenance pairs every merge tag with its witness state
    pmap = basis.provenance_map()
    for m in spec.merges:
        for t in m.tags:
            assert (t, m.target) in pmap


def test_build_basis_failure_is_hard():
    problem = conformant_problem(
        ["p", "g"], [[pos("p")]],
        [action("a", rules=[rule([pos("p")], pos("g"))])],
        [pos("g")])
    # a merge whose tag contradicts I cannot be witnessed
    bad = make_spec([], [Merge(frozenset([frozenset([neg("p")])]), pos("g"))],
                    "manual", trusted=True)
    with pytest.raises(BasisStateNotFound):
        build_basis(problem, bad)


# --- the iterative enumerator against the recursive reference ---------------------

def _check_enumeration(clauses, fluents, **kwargs):
    got = states_until_cap(enumerate_models, clauses, fluents, **kwargs)
    want = states_until_cap(reference_enumerate_states, clauses, fluents,
                            **kwargs)
    assert got == want


def test_enumeration_matches_reference_on_random_suite():
    rng = random.Random(77)
    for problem in random_suite(404, 60):
        fluents = sorted(problem.fluents)
        _check_enumeration(problem.init, fluents)
        _check_enumeration(problem.init, fluents, cap=3)
        # pinned literals, consistent or not, inside and outside the fluents
        forced = [Literal(f, rng.random() < 0.5)
                  for f in rng.sample(fluents + ["x"], 2)]
        _check_enumeration(problem.init, fluents, forced=forced, cap=None)
        _check_enumeration(problem.init, fluents,
                           forced=[pos(fluents[0]), neg(fluents[0])])


@pytest.mark.parametrize("family,params", BENCH_INSTANCES,
                         ids=["-".join(map(str, (f, *p)))
                              for f, p in BENCH_INSTANCES])
def test_enumeration_matches_reference_on_generated(family, params):
    problem = compiled_instance(family, params)[0]
    _check_enumeration(problem.init, problem.fluents, cap=1024)


def test_enumeration_of_a_deep_instance_ends_at_the_cap():
    # ring-400 has 1200 fluents: deeper than the interpreter's recursion
    ring = pddl.load(*generators.generate("ring", (400,)))
    with pytest.raises(TooManyInitialStates):
        initial_states(ring)
