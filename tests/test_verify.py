"""Brute-force oracles: state enumeration, conformance, weak semantics,
belief search, bases."""

import random

import pytest

from kplan import (
    Basis,
    BasisStateNotFound,
    CapExceeded,
    Plan,
    TooManyInitialStates,
    Verdict,
    belief_bfs,
    build_basis,
    build_context,
    cnf_goal_compile,
    conformant_check,
    initial_states,
    ktm,
    Literal,
    Merge,
    make_spec,
    neg,
    pos,
    restrict,
    run_plan,
    spec_k0,
    spec_ki,
    spec_kmodels,
    spec_ks0,
    zero_approx_run,
)
from kplan.analysis import target_literals
from kplan.errors import UnsupportedFeature
from kplan import generators, pddl
from kplan.model import NondetRule, conformant_problem, sorted_lits
from kplan.pi import enumerate_models
from kplan.verify import zero_approx_step

from conftest import (
    BENCH_INSTANCES,
    TINY_BAD,
    TINY_PLAN,
    action,
    all_sequences,
    classical_accepts,
    compiled_instance,
    random_suite,
    reference_entails_literal,
    reference_enumerate_states,
    reference_relevance,
    reference_zero_approx_step,
    rule,
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


def test_zero_approx_refuses_unknown_and_nondeterministic_actions(tiny):
    unknown = zero_approx_run(tiny, ("a", "nope"))
    assert not unknown.valid
    assert unknown.reason == "step 1: unknown action nope"
    problem = conformant_problem(
        ["p", "q"], [[neg("p")], [neg("q")]],
        [action("flip", nondet_rules=[NondetRule(
            frozenset(), (frozenset([pos("p")]), frozenset([pos("q")])))])],
        [pos("p")])
    with pytest.raises(UnsupportedFeature,
                       match="action flip has nondeterministic effects"):
        zero_approx_run(problem, ("flip",))


def test_belief_bfs_finds_no_plan_without_an_initial_state():
    problem = conformant_problem(
        ["p"], [[pos("p")], [neg("p")]],
        [action("a", rules=[rule([], pos("p"))])], [pos("p")])
    assert initial_states(problem) == ()
    assert belief_bfs(problem) is None


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
    known = frozenset([neg("p"), pos("q")])
    assert zero_approx_step(known, a) == known
    # q becomes unknown when the delete rule's condition is unknown
    assert zero_approx_step(frozenset([pos("q")]), a) == frozenset()
    # untouched fluents always persist
    assert zero_approx_step(frozenset([pos("r"), pos("p")]), a) == \
        frozenset([pos("r"), pos("p"), neg("q")])


def test_zero_approx_step_matches_reference_on_random_suite():
    """From random consistent sets of known literals, reachable or not,
    every action steps as the per-fluent reference does, and so does one
    action with the rules of all of them, whose heads can clash."""
    rng = random.Random(2727)
    compared = 0
    for reachable_goal in (False, True):
        for problem in random_suite(505, 40, reachable_goal=reachable_goal):
            fluents = sorted(problem.fluents)
            every_rule = action("all", rules=[r for a in problem.actions
                                              for r in a.rules])
            for _ in range(5):
                known = frozenset(
                    Literal(f, rng.random() < 0.5)
                    for f in rng.sample(fluents, rng.randint(0, len(fluents))))
                for a in (*problem.actions, every_rule):
                    assert zero_approx_step(known, a) == \
                        reference_zero_approx_step(known, a)
                    compared += 1
    assert compared >= 400


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


def test_belief_bfs_checks_goal_clauses():
    # sortnet's goal is all clauses: the empty plan leaves inputs unsorted
    problem = pddl.load(*generators.generate("sortnet", (3,)))
    plan = belief_bfs(problem, depth_cap=4)
    assert plan is not None and len(plan.steps) == 3
    assert conformant_check(problem, plan.steps).valid


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
    pmap = {(t, L): s for t, L, s in basis.provenance}
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
                    trusted=True)
    with pytest.raises(BasisStateNotFound):
        build_basis(problem, bad)


# --- the basis against the references -----------------------------------------

def reference_bases(problem, pi, specs):
    """``build_basis`` of each spec by the references, or
    BasisStateNotFound: relevance by its fixpoint, entailment clause by
    clause, and the pins as the ``forced`` literals of the recursive
    enumerator.  Both are memoized, as the specs repeat tags and pins."""
    relevant = reference_relevance(problem)[1]
    entailed, first = {}, {}
    out = []
    for spec in specs:
        merged = {m.target for m in spec.merges}
        work = [(t, m.target) for m in spec.merges
                for t in sorted(m.tags, key=sorted_lits)]
        work += [(frozenset(), L) for L in target_literals(problem)
                 if L not in merged]
        provenance = []
        for t, L in work:
            for lp in relevant[L]:
                if (t, lp) not in entailed:
                    entailed[t, lp] = reference_entails_literal(pi, t, lp)
            forced = frozenset(t) | {lp.negate() for lp in relevant[L]
                                     if not entailed[t, lp]}
            if forced not in first:
                first[forced] = next(reference_enumerate_states(
                    problem.init, problem.fluents, sorted_lits(forced),
                    cap=None), None)
            if first[forced] is None:
                out.append(BasisStateNotFound)
                break
            provenance.append((t, L, first[forced]))
        else:
            states = {s for _, _, s in provenance}
            out.append(Basis(tuple(sorted(states, key=sorted_lits)),
                             tuple(provenance)))
    return out


def _check_basis(problem):
    """Under ``ki:1``, and under ``kmodels`` and ``ks0`` where they have at
    most 512 tags: the same states, the same provenance, or
    BasisStateNotFound on both sides."""
    ctx = build_context(problem)
    specs, got = [], []
    for build in (lambda: spec_ki(ctx, 1), lambda: spec_kmodels(ctx, 512),
                  lambda: spec_ks0(ctx, 512)):
        try:
            specs.append(build())
        except CapExceeded:
            continue
        try:
            got.append(build_basis(problem, specs[-1], ctx))
        except BasisStateNotFound:
            got.append(BasisStateNotFound)
    assert got == reference_bases(problem, ctx.pi, specs)


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("reachable_goal", [False, True])
def test_build_basis_matches_reference_on_random_suites(seed, reachable_goal):
    for problem in random_suite(seed, 60, reachable_goal=reachable_goal):
        _check_basis(problem)


@pytest.mark.parametrize("family,params", BENCH_INSTANCES,
                         ids=["-".join(map(str, (f, *p)))
                              for f, p in BENCH_INSTANCES])
def test_build_basis_matches_reference_on_generated(family, params):
    _check_basis(compiled_instance(family, params)[0])


# --- the iterative enumerator against the recursive reference ---------------------

def _check_enumeration(clauses, fluents, pins=(), **kwargs):
    """kplan pins by unit clauses, the reference by ``forced``."""
    units = tuple(frozenset((l,)) for l in pins)
    got = states_until_cap(enumerate_models, tuple(clauses) + units, fluents,
                           **kwargs)
    want = states_until_cap(reference_enumerate_states, clauses, fluents,
                            forced=pins, **kwargs)
    assert got == want


def test_enumeration_matches_reference_on_random_suite():
    rng = random.Random(77)
    for problem in random_suite(404, 60):
        fluents = sorted(problem.fluents)
        _check_enumeration(problem.init, fluents)
        _check_enumeration(problem.init, fluents, cap=3)
        # pinned literals, consistent or not
        pins = [Literal(f, rng.random() < 0.5)
                for f in rng.sample(fluents, 2)]
        _check_enumeration(problem.init, fluents, pins, cap=None)
        _check_enumeration(problem.init, fluents,
                           [pos(fluents[0]), neg(fluents[0])])


@pytest.mark.parametrize("family,params", BENCH_INSTANCES,
                         ids=["-".join(map(str, (f, *p)))
                              for f, p in BENCH_INSTANCES])
def test_enumeration_matches_reference_on_generated(family, params):
    problem = compiled_instance(family, params)[0]
    _check_enumeration(problem.init, problem.fluents, cap=1024)


def test_initial_states_come_in_sorted_order():
    for problem in random_suite(404, 60):
        states = initial_states(problem)
        assert states == tuple(sorted(states, key=sorted_lits))
    for family, params in BENCH_INSTANCES:
        states = initial_states(compiled_instance(family, params)[0])
        assert states == tuple(sorted(states, key=sorted_lits))


def test_enumeration_of_a_deep_instance_ends_at_the_cap():
    # ring-400 has 1200 fluents: deeper than the interpreter's recursion
    ring = pddl.load(*generators.generate("ring", (400,)))
    with pytest.raises(TooManyInitialStates):
        initial_states(ring)


# --- the streamed check against the tuple of states -----------------------------

def reference_conformant_check(problem, steps, cap=4096):
    """``conformant_check`` as it was when it built the tuple of every
    initial state before it checked the first."""
    plan = Plan(tuple(steps))
    checked = 0
    for s in initial_states(problem, cap):
        checked += 1
        result = run_plan(restrict(problem, s), plan)
        if not result.applicable:
            return Verdict(False, f"step {result.failed_step}: {result.error}",
                           s, checked)
        if not result.achieved_goal:
            missing = sorted_lits(problem.goal - result.final)
            return Verdict(False, f"goal literals not achieved: {missing}",
                           s, checked)
        unsatisfied = [sorted_lits(c) for c in problem.goal_clauses
                       if not result.final & c]
        if unsatisfied:
            return Verdict(False, f"goal clauses not satisfied: {unsatisfied}",
                           s, checked)
    return Verdict(True, "conformant", None, checked)


def _outcome(check, *args, **kwargs):
    """What a check returns, or the type and message of what it raises."""
    try:
        return check(*args, **kwargs)
    except TooManyInitialStates as exc:
        return type(exc), str(exc)


def _check_streamed(problem, steps, **kwargs):
    got = _outcome(conformant_check, problem, steps, **kwargs)
    assert got == _outcome(reference_conformant_check, problem, steps,
                           **kwargs)
    return got


def test_streamed_check_matches_the_tuple_on_random_suites():
    verdicts = set()
    for problem in (random_suite(404, 30) + random_suite(405, 30,
                                                         reachable_goal=True)
                    + [cnf_goal_compile(pddl.load(
                        *generators.generate("sortnet", (3,))))]):
        names = sorted(a.name for a in problem.actions)
        for steps in all_sequences(names, 2):
            for cap in (4096, 3):
                got = _check_streamed(problem, steps, cap=cap)
                verdicts.add(got[0] if isinstance(got, tuple) else got.valid)
    assert verdicts == {True, False, TooManyInitialStates}


def test_streamed_check_matches_the_tuple_on_ring():
    ring = pddl.load(*generators.generate("ring", (4,)))
    plan = ("close", "lock", "fwd") * 4
    valid = _check_streamed(ring, plan)
    assert valid.valid and valid.states_checked == 1024
    truncated = _check_streamed(ring, plan[:-2])
    assert not truncated.valid and truncated.states_checked < 1024
    # past the cap a failing plan raises too, as the tuple did
    for steps in (plan, plan[:-2]):
        assert _check_streamed(ring, steps, cap=1000)[0] is \
            TooManyInitialStates
