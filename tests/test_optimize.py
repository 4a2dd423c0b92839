"""The rewrite optimizations must keep translations sound and no weaker."""

import functools
import gc
import hashlib
import itertools
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from kplan import (
    ClassicalProblem,
    Merge,
    PipelineConfig,
    Rule,
    SolveStatus,
    build_context,
    bfs_optimal,
    conformant_check,
    generators,
    inject_reset_effects,
    ktm,
    neg,
    nondet_compile,
    pddl,
    pipeline_solve,
    pos,
    simplify,
    solve,
    spec_ki,
    spec_kmodels,
    spec_ks0,
)
from kplan.analysis import target_literals
from kplan.translate import _simplify_pass, atom_name, make_spec

from conftest import (SMALL_INSTANCES, action, build_pickdrop, coin_problem,
                      compiled_instance, is_conformant, random_suite,
                      reachable_classical_states, rule)


def test_optimize_rebuilds_with_rewrites(pickdrop):
    problem, spec, t1, t2 = pickdrop
    ctx = build_context(problem)
    plain = ktm(problem, spec, ctx)
    opt = ktm(problem, spec, ctx, optimized=True)
    # everything is relevant under both location tags here, so no tagged
    # atom may collapse away
    assert len(opt.fluents) == len(plain.fluents)
    assert opt.goal == plain.goal


def test_collapse_removes_atoms_for_irrelevant_tags():
    from kplan.model import conformant_problem
    problem = conformant_problem(
        ["x", "y", "g"], [[neg("g")]],
        [action("a", rules=[rule([pos("x")], pos("g"))])], [pos("g")])
    tx, ty = frozenset([pos("x")]), frozenset([pos("y")])
    spec = make_spec([], [Merge(frozenset([tx, ty]), pos("g"))],
                     trusted=True)
    ctx = build_context(problem)
    plain = ktm(problem, spec, ctx)
    opt = ktm(problem, spec, ctx, optimized=True)
    # the tag {y} closure is {y, ~g}; every tagged atom whose literal has
    # no relevant literal in that closure collapses onto the untagged one,
    # so the merge reads Kg/{y} as Kg.  The tag {x} closure {x, ~g} holds
    # x, relevant to g: Kg/{x} and Kx/{x} stay.  Nothing mentions Ky or
    # K~y, so they are not declared.  No rule sets x, and no merge sets
    # K~x, so K~x is a constant, false as I does not entail ~x: the
    # cancellation rule ~K~x -> ~K~g loses its conjunct, and nothing
    # mentions K~x.  The merge sets Kx (g holds only where x does), so Kx
    # is not folded.
    assert len(plain.fluents) == 18
    assert opt.fluents == {"Kg", "Knot-g", "Kx", "Kg__x", "Kx__x"}
    assert rule([], neg("Knot-g")) in opt.action_by_name("a").rules
    merge = next(a for a in opt.actions if a.name in opt.merges)
    assert merge.rules[0] == rule([pos("Kg__x"), pos("Kg")], pos("Kg"))


def test_collapse_only_drops_irrelevant_tags(pickdrop):
    problem, spec, t1, t2 = pickdrop
    ctx = build_context(problem)
    opt = ktm(problem, spec, ctx, optimized=True)
    # hold is reachable under both tags, so its tagged atoms survive,
    # named by the projections of t1* and t2* less the empty tag's
    # closure {~hold, ~at-l3}, which hold at-l1 and at-l2
    assert atom_name(pos("hold"), {pos("at-l1"), neg("at-l2")}) in opt.fluents
    assert atom_name(pos("hold"), {neg("at-l1"), pos("at-l2")}) in opt.fluents


def test_optimized_translation_still_solves(pickdrop):
    problem, spec, _, _ = pickdrop
    ctx = build_context(problem)
    for optimized in (False, True):
        K = ktm(problem, spec, ctx, optimized=optimized)
        plan = bfs_optimal(K, depth_cap=4)
        assert plan is not None
        assert plan.stripped_length == 4
        assert is_conformant(problem, plan.stripped())


def test_optimization_preserves_soundness_and_reach_on_random_suite():
    """Optimized variants must stay sound, and must solve at least
    everything the plain variant solves, at least as short."""
    for problem in random_suite(505, 15, max_fluents=5, max_actions=4):
        ctx = build_context(problem)
        for builder in (lambda: spec_ki(ctx, 1), lambda: spec_kmodels(ctx)):
            spec = builder()
            plain = bfs_optimal(ktm(problem, spec, ctx), depth_cap=4,
                                max_states=30_000)
            opt_plan = bfs_optimal(ktm(problem, spec, ctx, optimized=True),
                                   depth_cap=4, max_states=30_000)
            if opt_plan is not None:
                assert is_conformant(problem, opt_plan.stripped()), problem
            if plain is not None:
                assert opt_plan is not None, problem
                assert opt_plan.stripped_length <= plain.stripped_length


def test_optimized_build_is_deterministic(pickdrop):
    problem, spec, _, _ = pickdrop
    a = ktm(problem, spec, build_context(problem), optimized=True)
    b = ktm(problem, spec, build_context(problem), optimized=True)
    assert a == b


# --- the simplification pass: the atoms nothing reads ----------------------

def read_atoms(K):
    """The atoms K reads, as a fixpoint: those of the goal and of every
    precondition, then the condition atoms of every rule that sets a read
    atom."""
    read = {l.fluent for l in K.goal}
    read |= {l.fluent for a in K.actions for l in a.preconditions}
    while True:
        more = {l.fluent for a in K.actions for r in a.rules
                if r.effect.fluent in read for l in r.condition} - read
        if not more:
            return read
        read |= more


def mentioned_atoms(K):
    atoms = {l.fluent for l in K.init | K.goal}
    for a in K.actions:
        atoms |= {l.fluent for l in a.preconditions}
        for r in a.rules:
            atoms |= {r.effect.fluent} | {l.fluent for l in r.condition}
    return atoms


def check_drop_unread(K):
    """``simplify(K)`` keeps only atoms that it reads and that K reads,
    with their init literals, and only actions with a rule, in K's order,
    each rule once.  A second pass changes nothing."""
    S = simplify(K)
    assert mentioned_atoms(S) <= S.fluents
    assert S.fluents == read_atoms(S) <= read_atoms(K)
    assert S.init == {l for l in K.init if l.fluent in S.fluents}
    kept = {a.name for a in S.actions}
    assert [a.name for a in S.actions] == \
        [a.name for a in K.actions if a.name in kept]
    for a in S.actions:
        assert a.rules and len(set(a.rules)) == len(a.rules), a.name
    assert simplify(S) == S
    return S


def spec_ks0_merging(ctx, every):
    """``spec_ks0``, with a merge to every literal when ``every``, as the
    pipeline's specs merge on oneof input.  kplan builds no such ks0
    spec; the oneof cases below and ``simplified_digest`` read it."""
    if not every:
        return spec_ks0(ctx)
    tags = frozenset(ctx.pi.models(ctx.pi.unknown_fluents()))
    return make_spec(tags, [Merge(tags, L)
                            for L in target_literals(ctx.problem, True)],
                     trusted=True)


SPECS = {"ki:1": lambda ctx, every: spec_ki(ctx, 1, include_all=every),
         "kmodels": lambda ctx, every: spec_kmodels(ctx, include_all=every),
         "ks0": spec_ks0_merging}


def pipeline_encoding(problem, resets, scheme, optimized=True):
    """The classical problem the pipeline simplifies, with the reset
    effects of oneof input; without ``optimized``, the literal translation
    of deterministic input."""
    ctx = build_context(problem)
    spec = SPECS[scheme](ctx, bool(resets))
    K = ktm(problem, spec, ctx, optimized=optimized)
    return inject_reset_effects(K, ctx, spec, resets)


@pytest.mark.parametrize("scheme", sorted(SPECS))
@pytest.mark.parametrize("family,params", SMALL_INSTANCES,
                         ids=["-".join(map(str, (f, *p)))
                              for f, p in SMALL_INSTANCES])
def test_drop_unread_invariants_on_generated(family, params, scheme):
    problem, resets = compiled_instance(family, params)
    K = pipeline_encoding(problem, resets, scheme)
    assert len(check_drop_unread(K).fluents) < len(K.fluents)


def test_drop_unread_invariants_on_random_suite():
    for problem in random_suite(707, 20, max_fluents=5, max_actions=4):
        ctx = build_context(problem)
        for spec in (spec_ki(ctx, 1), spec_kmodels(ctx), spec_ks0(ctx)):
            for optimized in (False, True):
                check_drop_unread(ktm(problem, spec, ctx,
                                      optimized=optimized))


def test_an_action_that_changes_no_read_atom_goes_with_its_preconditions():
    # b reads p, which only a sets; b changes only q, which nothing
    # reads, so b goes, then p, then a.  Were b's precondition read, a
    # would stay in the first pass and go in the second.
    K = ClassicalProblem(
        frozenset("gpq"), frozenset(),
        (action("a", [], [rule([], pos("p"))]),
         action("b", [pos("p")], [rule([], pos("q"))]),
         action("c", [], [rule([], pos("g"))])),
        frozenset([pos("g")]))
    assert check_drop_unread(K) == ClassicalProblem(
        frozenset("g"), frozenset(), K.actions[2:], K.goal)


@pytest.mark.parametrize("copies", [1, 2, 3])
def test_oneof_plans_stay_conformant_when_dropping_after_the_resets(copies):
    sgripper = pddl.load(*generators.sgripper(2))
    for name, problem in (("coin", coin_problem()), ("sgripper-2", sgripper)):
        compiled, resets = nondet_compile(problem, copies)
        for scheme in SPECS:
            check_drop_unread(pipeline_encoding(compiled, resets, scheme))
        result = solve(simplify(pipeline_encoding(compiled, resets, "ki:1")))
        assert result.status is SolveStatus.SOLVED, name
        assert conformant_check(compiled, result.plan.stripped()).valid, name
        plan, report = pipeline_solve(problem,
                                      PipelineConfig(max_copies=copies))
        stage = report["stages"][-1]
        judged = nondet_compile(problem, stage["copies"])[0]
        assert conformant_check(judged, plan.steps).valid, name


# --- the simplification pass: relaxed reachability --------------------------

def reached_literals(K):
    """The literals relaxed reachability reaches, as a fixpoint: those of
    the initial state, then the effect of every rule whose action's
    preconditions and own condition are reached."""
    reached = set(K.initial_state())
    while True:
        more = {r.effect for a in K.actions if a.preconditions <= reached
                for r in a.rules if r.condition <= reached} - reached
        if not more:
            return reached
        reached |= more


def constant_atoms(K, reached):
    """The declared atoms with one reached value."""
    return {f for f in K.fluents
            if not {pos(f), neg(f)} <= reached}


def reference_prune(K):
    """What ``simplify`` keeps before it merges atoms, spelled out over
    ``reached_literals`` and ``constant_atoms``: drop the unreached
    actions and rules, then the constant atoms, whose reached literals
    leave the goal, the preconditions and the conditions, and the rules
    that set them; an unreached goal literal keeps its atom.  Then keep
    the atoms read as a fixpoint: those of the goal, then the atoms of
    the condition and of the action's preconditions of every rule that
    sets a read atom; and keep the rules that set them, and the actions
    with such a rule."""
    reached = reached_literals(K)
    constant = constant_atoms(K, reached)
    fixed = {l for l in reached if l.fluent in constant}
    actions = [a._replace(preconditions=a.preconditions - fixed,
                          rules={Rule(r.condition - fixed, r.effect)
                                 for r in a.rules if r.condition <= reached
                                 and r.effect not in fixed})
               for a in K.actions if a.preconditions <= reached]
    goal = K.goal - fixed
    # (the atom a rule sets, the atoms it reads when that atom is read)
    reads = [(r.effect.fluent, {l.fluent for l in r.condition | a.preconditions})
             for a in actions for r in a.rules]
    read = {l.fluent for l in goal}
    while True:
        more = set().union(*[atoms for f, atoms in reads if f in read]) - read
        if not more:
            break
        read |= more
    actions = [a._replace(rules=tuple(r for r in a.rules
                                      if r.effect.fluent in read))
               for a in actions]
    return ClassicalProblem(
        frozenset(read), frozenset(l for l in K.init if l.fluent in read),
        tuple(a for a in actions if a.rules), goal)


def action_table(K):
    return {a.name: (a.preconditions, frozenset(a.rules)) for a in K.actions}


def check_prune(K):
    """``simplify(K)`` against ``reference_prune(K)``: simplifying the
    reference's result gives the same problem, so the pass drops what the
    reference drops.  What is left fires and changes, except the atoms of
    the unreached goal literals, which no rule sets."""
    S = check_drop_unread(K)
    R = reference_prune(K)
    T = simplify(R)
    assert (T.fluents, T.init, T.goal) == (S.fluents, S.init, S.goal)
    assert action_table(T) == action_table(S)
    assert S.fluents <= R.fluents
    reached = reached_literals(S)
    assert all(r.condition <= reached and a.preconditions <= reached
               for a in S.actions for r in a.rules)
    unreached = {l.fluent for l in S.goal if l not in reached}
    assert constant_atoms(S, reached) == unreached
    assert not [r for a in S.actions for r in a.rules
                if r.effect.fluent in unreached]
    assert bool(unreached) == (not K.goal <= reached_literals(K))
    return S


@pytest.mark.parametrize("scheme", sorted(SPECS))
@pytest.mark.parametrize("family,params", SMALL_INSTANCES,
                         ids=["-".join(map(str, (f, *p)))
                              for f, p in SMALL_INSTANCES])
def test_prune_invariants_on_generated(family, params, scheme):
    problem, resets = compiled_instance(family, params)
    # reset effects go only into the rewritten encoding
    for optimized in (True,) if resets else (False, True):
        check_prune(pipeline_encoding(problem, resets, scheme, optimized))


def test_prune_invariants_on_random_suite():
    for problem in random_suite(707, 20, max_fluents=5, max_actions=4):
        ctx = build_context(problem)
        for spec in (spec_ki(ctx, 1), spec_kmodels(ctx), spec_ks0(ctx)):
            for optimized in (False, True):
                check_prune(ktm(problem, spec, ctx, optimized=optimized))


def prune_rewrites(K):
    """(conditions stripped, rules made one) by the pruning of K, counted
    over ``reached_literals`` and ``constant_atoms``."""
    reached = reached_literals(K)
    if not K.goal <= reached:
        return 0, 0
    constant = constant_atoms(K, reached)
    stripped = merged = 0
    for a in K.actions:
        if a.preconditions <= reached:
            rules = [r for r in a.rules if r.condition <= reached
                     and r.effect.fluent not in constant]
            kept = {Rule(frozenset(l for l in r.condition
                                   if l.fluent not in constant), r.effect)
                    for r in rules}
            stripped += len([r for r in rules if r not in kept])
            merged += len(rules) - len(kept)
    return stripped, merged


def test_prune_strips_and_merges_rules_on_the_reachable_goal_suite():
    """The 707 suite's goals are mostly relaxed-unreachable, and no rules
    of its translations become one; this suite's translations strip
    conditions and merge rules."""
    reachable = stripped = merged = 0
    for problem in random_suite(708, 20, max_fluents=5, max_actions=4,
                                reachable_goal=True):
        ctx = build_context(problem)
        for spec in (spec_ki(ctx, 1), spec_kmodels(ctx), spec_ks0(ctx)):
            for optimized in (False, True):
                K = ktm(problem, spec, ctx, optimized=optimized)
                check_prune(K)
                reachable += K.goal <= reached_literals(K)
                counts = prune_rewrites(K)
                stripped += counts[0] > 0
                merged += counts[1] > 0
    assert reachable > 60 and stripped > 0 and merged > 0


def test_prune_on_a_small_problem():
    # c is true and never deleted, u is never set, and b needs u; without
    # c, the two rules of d are one
    K = ClassicalProblem(
        frozenset(["c", "u", "x", "g"]), frozenset([pos("c")]),
        (action("a", [pos("c")], [rule([pos("c")], pos("x")),
                                   rule([pos("u")], pos("g")),
                                   rule([], pos("c"))]),
         action("b", [pos("u")], [rule([], pos("g"))]),
         action("d", [], [rule([pos("x"), pos("c")], pos("g")),
                          rule([pos("x")], pos("g"))])),
        frozenset([pos("g"), pos("c")]))
    assert check_prune(K) == ClassicalProblem(
        frozenset(["x", "g"]), frozenset(),
        (action("a", [], [rule([], pos("x"))]),
         action("d", [], [rule([pos("x")], pos("g"))])),
        frozenset([pos("g")]))


def test_prune_leaves_an_unreachable_goal_to_the_planner():
    # g is never reached: its atom stays, with no rule to set it, and the
    # search ends at the root
    K = ClassicalProblem(
        frozenset(["p", "g", "q"]), frozenset(),
        (action("a", [], [rule([pos("p")], pos("g")), rule([], pos("q"))]),),
        frozenset([pos("g")]))
    assert check_prune(K) == ClassicalProblem(
        frozenset(["g"]), frozenset(), (), frozenset([pos("g")]))
    result = solve(simplify(K))
    assert result.status is SolveStatus.UNSOLVABLE
    assert (result.expanded, result.evaluated) == (0, 1)


def step(s, a):
    """The literals that applying ``a`` in state ``s`` adds."""
    return {r.effect for r in a.rules if r.condition <= s}


def clashes(add, atoms):
    """The atoms among ``atoms`` that ``add`` sets both true and false,
    on which applying the action raises InconsistentResult."""
    return ({f for f, positive in add if positive}
            & {f for f, positive in add if not positive} & atoms)


def check_steps(K, S, every_clash=False):
    """Walk every state reachable in K and compare S there: S starts with
    K's values of its atoms, tests the goal alike, applies the same
    actions, gives its atoms the same values and raises on the same
    clashes among them; an action that S drops changes none of its
    atoms.  With ``every_clash``, S raises exactly when K does.  Returns
    the states."""
    kept = S.fluents
    by_name = {a.name: a for a in S.actions}
    start = K.initial_state()
    assert S.initial_state() == {l for l in start if l.fluent in kept}
    seen, frontier = {start}, [start]
    while frontier:
        s = frontier.pop()
        p = frozenset(l for l in s if l.fluent in kept)
        assert (K.goal <= s) == (S.goal <= p)
        for a in K.actions:
            b = by_name.get(a.name)
            if not a.preconditions <= s:
                assert b is None or not b.preconditions <= p
                continue
            add = step(s, a)
            if b is None:
                assert {l for l in add if l.fluent in kept} <= p
                assert not clashes(add, kept)
            else:
                assert b.preconditions <= p
                kept_add = step(p, b)
                # S may leave out a rule that only sets what already holds
                assert kept_add <= add
                assert {l for l in add if l.fluent in kept} - p == \
                    kept_add - p
                assert clashes(add, kept) == clashes(kept_add, kept)
                if every_clash:
                    # a clash on a dropped atom is one on its representative
                    assert bool(clashes(add, K.fluents)) == \
                        bool(clashes(kept_add, kept))
            if not clashes(add, K.fluents):
                nxt = s.difference([l.negate() for l in add]) | add
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
    return seen


@pytest.mark.parametrize("scheme", sorted(SPECS))
@pytest.mark.parametrize("family,params", SMALL_INSTANCES,
                         ids=["-".join(map(str, (f, *p)))
                              for f, p in SMALL_INSTANCES])
def test_prune_keeps_every_reachable_step(family, params, scheme):
    """On every state reachable in K, the simplified problem applies the
    same actions, gives its atoms the same values, raises on the same
    clashes among its atoms, and tests the goal alike."""
    problem, resets = compiled_instance(family, params)
    K = pipeline_encoding(problem, resets, scheme)
    assert len(check_steps(K, simplify(K))) > 1


def test_prune_keeps_the_optimal_plans_on_random_suite():
    """Simplifying never changes whether a plan exists, nor its optimal
    length, and the plans found stay conformant."""
    found = 0
    for problem in random_suite(505, 15, max_fluents=5, max_actions=4):
        ctx = build_context(problem)
        for spec in (spec_ki(ctx, 1), spec_kmodels(ctx)):
            for optimized in (False, True):
                K = ktm(problem, spec, ctx, optimized=optimized)
                plan = bfs_optimal(K, depth_cap=4, max_states=30_000)
                simplified = bfs_optimal(simplify(K), depth_cap=4,
                                         max_states=30_000)
                assert (plan is None) == (simplified is None), problem
                if plan is not None:
                    found += 1
                    assert simplified.stripped_length == \
                        plan.stripped_length
                    assert is_conformant(problem, simplified.stripped()), \
                        problem
    assert found > 0


@pytest.mark.parametrize("copies", [1, 2])
def test_pruning_runs_after_the_resets(copies):
    """The reset effects read the plain KL atoms and make tagged atoms
    settable again: simplifying before them keeps a different problem,
    whose reset rules mention atoms it no longer declares."""
    sgripper = pddl.load(*generators.sgripper(2))
    for name, problem in (("coin", coin_problem()), ("sgripper-2", sgripper)):
        compiled, resets = nondet_compile(problem, copies)
        ctx = build_context(compiled)
        for scheme in SPECS:
            spec = SPECS[scheme](ctx, True)
            K = ktm(compiled, spec, ctx, optimized=True)
            late = check_prune(inject_reset_effects(K, ctx, spec, resets))
            early = inject_reset_effects(simplify(K), ctx, spec, resets)
            assert early != late, (name, scheme)
            assert not mentioned_atoms(early) <= early.fluents, (name, scheme)


# --- the simplification pass: merging the atoms tied in every reachable state

def check_merge(K):
    """``simplify(K)``, for a K that ``reference_prune`` leaves as it is,
    against a walk of every state reachable in K: the result applies the
    same actions, gives its atoms the same values, raises on the same
    clashes and tests the goal alike.  Each atom it drops equals or
    complements a lesser-named atom it keeps, or is read only through
    dropped conjuncts and idle rules: K's read closure reaches it only
    through a conjunct of the goal, of a precondition or of a condition
    that, in every walked state, another conjunct of that conjunction
    implies, one whose atom equals or complements a kept atom, or through
    a rule that is idle: in every walked state where it fires, its head
    already holds and no rule of its action sets the complement; or that
    is shadowed: another rule of its action with the same head fires in
    every walked state where it does, and in more of them, or in as many
    with fewer conjuncts (of rules that tie, the least stays).  Each
    action it drops sets atoms so read only through idle and shadowed
    rules."""
    merged = check_drop_unread(K)
    kept = merged.fluents
    assert kept <= K.fluents
    names = {a.name for a in merged.actions}
    assert [a.name for a in merged.actions] == \
        [a.name for a in K.actions if a.name in names]
    states = list(check_steps(K, merged, every_clash=True))
    # the walked states where a literal holds, as a bit mask
    holds = dict.fromkeys([l for f in K.fluents for l in (pos(f), neg(f))], 0)
    for k, s in enumerate(states):
        for l in s:
            holds[l] |= 1 << k
    # each atom's column, the states where it has its start value: an atom
    # equal or complementary to a kept one named before it has its column
    column = {l.fluent: holds[l] for l in K.initial_state()}
    first_kept = {}
    for f in sorted(kept):
        first_kept.setdefault(column[f], f)

    def needed(conj):
        """conj less the conjuncts another conjunct implies, one whose
        atom equals or complements a kept atom."""
        stay = [a for a in conj if column[a.fluent] in first_kept]
        return {b for b in conj
                if not any(a != b and not holds[a] & ~holds[b] for a in stay)}

    # (action name, rule) -> the walked states where the rule fires, as a
    # bit mask; and the rules that are not idle
    fires, busy = {}, set()
    for k, s in enumerate(states):
        for a in K.actions:
            if a.preconditions <= s:
                add = step(s, a)
                for r in a.rules:
                    if r.condition <= s:
                        fires[a.name, r] = fires.get((a.name, r), 0) | 1 << k
                        if r.effect not in s or r.effect.negate() in add:
                            busy.add((a.name, r))
    # less the shadowed rules, ranked by how often they fire, then by
    # their number of conjuncts
    for a in K.actions:
        ranked = sorted((-bin(fires[a.name, r]).count("1"), len(r.condition),
                         Rule.sort_key(r), r)
                        for r in a.rules if (a.name, r) in fires)
        for n, (*_, r) in enumerate(ranked):
            if any(r2.effect == r.effect
                   and not fires[a.name, r] & ~fires[a.name, r2]
                   for *_, r2 in ranked[:n]):
                busy.discard((a.name, r))
    reads = {}  # atom -> the conjunctions read when it is
    for a in K.actions:
        for r in a.rules:
            if (a.name, r) in busy:
                reads.setdefault(r.effect.fluent, []).extend(
                    [r.condition, a.preconditions])
    read, stack = set(), [l.fluent for l in needed(K.goal)]
    while stack:
        f = stack.pop()
        if f not in read:
            read.add(f)
            for conj in reads.get(f, ()):
                stack += [l.fluent for l in needed(conj)]
    for f in K.fluents - kept:
        assert first_kept.get(column[f], f) < f or f not in read, f
    for a in K.actions:
        if a.name not in names:
            assert not {r.effect.fluent for r in a.rules
                        if (a.name, r) in busy} & read, a.name
    return merged


def drops_a_firing_rule(K, S):
    """Whether, in some state reachable in K, S sets fewer of its atoms
    than K does by the same action, or by an action S drops: S left out
    an idle rule that fires there."""
    by_name = {a.name: a for a in S.actions}
    for s in check_steps(K, S):
        p = frozenset(l for l in s if l.fluent in S.fluents)
        for a in K.actions:
            b = by_name.get(a.name)
            if a.preconditions <= s and \
                    {l for l in step(s, a) if l.fluent in S.fluents} != \
                    (step(p, b) if b else set()):
                return True
    return False


@pytest.mark.parametrize("scheme", sorted(SPECS))
@pytest.mark.parametrize("family,params", SMALL_INSTANCES,
                         ids=["-".join(map(str, (f, *p)))
                              for f, p in SMALL_INSTANCES])
def test_merge_atoms_keeps_every_reachable_step(family, params, scheme):
    problem, resets = compiled_instance(family, params)
    check_merge(reference_prune(pipeline_encoding(problem, resets, scheme)))


def test_merge_atoms_keeps_every_reachable_step_on_random_suites():
    dropped = idle = 0
    for problem in (random_suite(707, 20, max_fluents=5, max_actions=4)
                    + random_suite(708, 20, max_fluents=5, max_actions=4,
                                   reachable_goal=True)):
        ctx = build_context(problem)
        for spec in (spec_ki(ctx, 1), spec_kmodels(ctx), spec_ks0(ctx)):
            for optimized in (False, True):
                K = reference_prune(ktm(problem, spec, ctx,
                                        optimized=optimized))
                S = check_merge(K)
                dropped += len(S.fluents) < len(K.fluents)
                idle += drops_a_firing_rule(K, S)
    assert dropped > 0 and idle > 0, (dropped, idle)


def test_merge_atoms_keeps_the_optimal_plans_on_random_suites():
    """Merging never changes whether a plan exists, nor its optimal
    length, and the plans found stay conformant."""
    found = 0
    for problem in (random_suite(505, 15, max_fluents=5, max_actions=4)
                    + random_suite(708, 20, max_fluents=5, max_actions=4,
                                   reachable_goal=True)):
        ctx = build_context(problem)
        for spec in (spec_ki(ctx, 1), spec_kmodels(ctx)):
            K = reference_prune(ktm(problem, spec, ctx, optimized=True))
            plan = bfs_optimal(K, depth_cap=4, max_states=30_000)
            merged = bfs_optimal(simplify(K), depth_cap=4,
                                 max_states=30_000)
            assert (plan is None) == (merged is None), problem
            if plan is not None:
                found += 1
                assert merged.stripped_length == plan.stripped_length
                assert is_conformant(problem, merged.stripped()), problem
    assert found > 0


def test_merge_atoms_on_a_small_problem():
    # x and y are equal, q is p's complement, m and n (and so u and v) are
    # set by one action under atoms that differ, and g and h have the same
    # rules but start apart, so they are neither equal nor complementary.
    # The goal and check's precondition read every atom.
    K = ClassicalProblem(
        frozenset("ghmnpqstuvwxy"), frozenset([pos("g"), pos("p")]),
        (action("both", [], [rule([pos("x")], pos("h")),
                             rule([pos("y")], pos("h")),
                             rule([pos("x"), neg("y")], neg("h"))]),
         action("check", [pos("q"), pos("y")], [rule([], pos("w"))]),
         action("clear", [], [rule([], neg("g")), rule([], neg("h"))]),
         action("flip", [], [rule([], neg("p")), rule([], pos("q"))]),
         action("go1", [], [rule([pos("s")], pos("m")),
                            rule([pos("t")], pos("n"))]),
         action("go2", [], [rule([pos("m")], pos("u")),
                            rule([pos("n")], pos("v"))]),
         action("mark", [], [rule([], pos("g")), rule([], pos("h"))]),
         action("one", [], [rule([], pos("s"))]),
         action("reset", [], [rule([], neg("x")), rule([], neg("y"))]),
         action("set", [], [rule([], pos("x")), rule([], pos("y"))]),
         action("two", [], [rule([], pos("t"))]),
         action("unflip", [], [rule([], pos("p")), rule([], neg("q"))])),
        frozenset([pos("g"), pos("h"), pos("p"), pos("u"), pos("v"),
                   pos("w")]))
    R = reference_prune(K)
    assert (R.fluents, R.init, R.goal) == (K.fluents, K.init, K.goal)
    assert action_table(R) == action_table(K)
    assert check_merge(K) == ClassicalProblem(
        frozenset("ghmnpstuvwx"), frozenset([pos("g"), pos("p")]),
        (action("both", [], [rule([pos("x")], pos("h"))]),
         action("check", [neg("p"), pos("x")], [rule([], pos("w"))]),
         *K.actions[2:3],
         action("flip", [], [rule([], neg("p"))]),
         *K.actions[4:8],
         action("reset", [], [rule([], neg("x"))]),
         action("set", [], [rule([], pos("x"))]),
         K.actions[10],
         action("unflip", [], [rule([], pos("p"))])),
        K.goal)


# --- the simplification pass: conjuncts implied in every reachable state ---

def test_implied_conjuncts_on_a_small_problem():
    # All atoms but t start false.  p implies q: a1 sets both and nothing
    # deletes q; b1 also sets q, so q does not imply p.  c2 deletes r, so
    # nothing implies r.  a3 sets s whenever it sets t, but t starts true
    # and s false.  e4 sets u alone and f4 v alone, so neither implies the
    # other.  w1 and w2 imply each other, as a5 sets both whenever it sets
    # either; z tells their classes apart.  The goal reads every atom.
    K = ClassicalProblem(
        frozenset(["p", "q", "r", "s", "t", "u", "v", "w1", "w2", "z"]),
        frozenset([pos("t")]),
        (action("a1", [], [rule([], pos("p")), rule([], pos("q")),
                           rule([], pos("r"))]),
         action("a3", [], [rule([], pos("s")), rule([], pos("t"))]),
         action("a4", [], [rule([], pos("u")), rule([], pos("v"))]),
         action("a5", [], [rule([], pos("w1")), rule([], pos("w2")),
                           rule([pos("z")], pos("w2"))]),
         action("b1", [], [rule([], pos("q"))]),
         action("c2", [], [rule([], neg("r"))]),
         action("d2", [], [rule([], pos("r"))]),
         action("e3", [], [rule([], neg("t"))]),
         action("e4", [], [rule([], pos("u"))]),
         action("f4", [], [rule([], pos("v"))]),
         action("g5", [], [rule([], pos("z"))])),
        frozenset(map(pos, ["p", "q", "r", "s", "t", "u", "v", "w1", "w2"])))
    R = reference_prune(K)
    assert (R.fluents, R.init, R.goal) == (K.fluents, K.init, K.goal)
    assert action_table(R) == action_table(K)
    # q and w2 leave the goal; then z, b1 and g5 go, as nothing reads them
    assert check_merge(K) == ClassicalProblem(
        frozenset(["p", "r", "s", "t", "u", "v", "w1"]), K.init,
        (action("a1", [], [rule([], pos("p")), rule([], pos("r"))]),
         *K.actions[1:3],
         action("a5", [], [rule([], pos("w1"))]),
         *K.actions[5:10]),
        frozenset(map(pos, ["p", "r", "s", "t", "u", "v", "w1"])))


# --- the simplification pass: rules that fire only where their head holds --

def idle_merge_problem(*extra):
    """b and t stand for Knot-armed/armed and Karmed/armed of bomb: dunk1
    and dunk2 make ~t true and set b unconditionally, so ~t implies b and
    merge fires only where b holds.  note also sets b under ~t, and n."""
    actions = [action("dunk1", [], [rule([], pos("b")),
                                    rule([pos("t")], neg("t"))]),
               action("dunk2", [], [rule([], pos("b")),
                                    rule([pos("t")], neg("t"))]),
               action("merge", [], [rule([neg("t")], pos("b"))]),
               action("note", [], [rule([neg("t")], pos("b")),
                                   rule([], pos("n"))]),
               *extra]
    return ClassicalProblem(
        frozenset("bnt"), frozenset([pos("t")]),
        tuple(sorted(actions, key=lambda a: a.name)),
        frozenset([pos("b"), pos("n")]))


def test_idle_rules_go_with_the_atoms_only_they_read():
    # merge goes and note keeps only its n rule; then nothing reads t
    K = idle_merge_problem()
    R = reference_prune(K)
    assert (R.fluents, R.init, R.goal) == (K.fluents, K.init, K.goal)
    assert action_table(R) == action_table(K)
    S = check_merge(K)
    assert S == ClassicalProblem(
        frozenset("bn"), frozenset(),
        (action("dunk1", [], [rule([], pos("b"))]),
         action("dunk2", [], [rule([], pos("b"))]),
         action("note", [], [rule([], pos("n"))])),
        K.goal)
    assert drops_a_firing_rule(K, S)


@pytest.mark.parametrize("extra", [
    # spoil falsifies b, so b does not stay true once true
    action("spoil", [], [rule([], neg("b"))]),
    # drop makes ~t true without setting b, so ~t does not imply b
    action("drop", [], [rule([pos("t")], neg("t"))])],
    ids=["head-falsified", "not-implied"])
def test_rules_that_change_their_head_stay(extra):
    K = idle_merge_problem(extra)
    R = reference_prune(K)
    assert (R.fluents, R.init, R.goal) == (K.fluents, K.init, K.goal)
    assert action_table(R) == action_table(K)
    S = check_merge(K)
    assert S == K
    assert not drops_a_firing_rule(K, S)


def own_head_problem(*extra):
    """c stands for Knot-clogged of bomb: clog and flush change it, and
    merge sets it only where it already holds, plus ``extra``."""
    actions = [action("clog", [], [rule([], neg("c"))]),
               action("flush", [], [rule([], pos("c"))]),
               action("merge", [], [rule([pos("c")], pos("c")), *extra]),
               action("note", [], [rule([], pos("n"))])]
    return ClassicalProblem(frozenset("cn"), frozenset([pos("c")]),
                            tuple(actions), frozenset([pos("c"), pos("n")]))


@pytest.mark.parametrize("extra,kept", [
    ([], False),
    # it only sets ~c where c is false, so it never fires with c -> c
    ([rule([neg("c")], neg("c"))], False),
    # it can set ~c beside c -> c, which then raises a clash
    ([rule([pos("n")], neg("c"))], True)],
    ids=["alone", "apart", "clashing"])
def test_rules_that_hold_their_head_go_unless_their_action_clears_it(
        extra, kept):
    K = own_head_problem(*extra)
    R = reference_prune(K)
    assert (R.fluents, R.init, R.goal) == (K.fluents, K.init, K.goal)
    assert action_table(R) == action_table(K)
    S = check_merge(K)
    assert ("merge" in [a.name for a in S.actions]) == kept
    if kept:
        assert S == K
    else:
        assert _simplify_pass(K)[1]  # reported, so the loop runs again
        assert drops_a_firing_rule(K, S)


@pytest.mark.parametrize("n", [3, 6])
def test_the_merges_to_not_clogged_go_on_bomb_ks0(n):
    # each merge to ~clogged-t reads K~clogged-t alone once simplified, so
    # it sets that atom only where it holds, and sets nothing else
    problem, resets = compiled_instance("bomb", (n, n))
    K = pipeline_encoding(problem, resets, "ks0")
    assert len([a for a in K.actions
                if a.name.startswith("merge__not-clogged")]) == n
    S = simplify(K)
    assert not [a for a in S.actions if a.name.startswith("merge__")]
    assert (len(S.fluents), sum(len(a.rules) for a in S.actions)) == \
        (2 * n, 2 * n * n + n)
    assert simplify(S) == S


def sibling_problem(extra_rules=(), extra_actions=()):
    """set makes g true under a, which flip makes true, plus
    ``extra_rules`` of set and ``extra_actions``."""
    actions = [action("flip", [], [rule([], pos("a"))]),
               action("set", [], sorted([rule([pos("a")], pos("g")),
                                         *extra_rules], key=Rule.sort_key)),
               *extra_actions]
    return ClassicalProblem(frozenset("ag"), frozenset(),
                            tuple(sorted(actions, key=lambda a: a.name)),
                            frozenset([pos("g")]))


def test_a_rule_within_a_sibling_condition_goes():
    # set's true -> g fires wherever a -> g does; then nothing reads a
    K = sibling_problem([rule([], pos("g"))])
    R = reference_prune(K)
    assert (R.fluents, R.init, R.goal) == (K.fluents, K.init, K.goal)
    assert action_table(R) == action_table(K)
    S = check_merge(K)
    assert S == ClassicalProblem(frozenset("g"), frozenset(),
                                 (action("set", [], [rule([], pos("g"))]),),
                                 K.goal)
    assert _simplify_pass(K)[1]  # reported, so the loop runs again
    assert simplify(S) == S


@pytest.mark.parametrize("extra_rules,extra_actions", [
    # the rule true -> g belongs to another action
    ([], [action("also", [], [rule([], pos("g"))])]),
    # set's other rule sets g under ~a, which is not within a
    ([rule([neg("a")], pos("g"))], []),
    # set's other rule makes g false
    ([rule([], neg("g"))], [])],
    ids=["other-action", "other-condition", "other-value"])
def test_a_rule_with_no_sibling_within_its_condition_stays(extra_rules,
                                                           extra_actions):
    K = sibling_problem(extra_rules, extra_actions)
    R = reference_prune(K)
    assert (R.fluents, R.init, R.goal) == (K.fluents, K.init, K.goal)
    assert action_table(R) == action_table(K)
    assert check_merge(K) == K


def subsumed_rules(S):
    """(action name, rule) for each rule of S whose condition strictly
    holds that of another rule of its action with the same head."""
    found = []
    for a in S.actions:
        for r in a.rules:
            if any(o.effect == r.effect and o.condition < r.condition
                   for o in a.rules):
                found.append((a.name, r))
    return found


@pytest.mark.parametrize("scheme", sorted(SPECS))
@pytest.mark.parametrize("family,params", SMALL_INSTANCES,
                         ids=["-".join(map(str, (f, *p)))
                              for f, p in SMALL_INSTANCES])
def test_no_kept_rule_has_a_sibling_within_its_condition(family, params,
                                                        scheme):
    problem, resets = compiled_instance(family, params)
    assert not subsumed_rules(simplify(pipeline_encoding(problem, resets,
                                                         scheme)))


@functools.lru_cache(maxsize=None)
def simplified_random_suites():
    """simplify(ktm(...)) under ki:1, kmodels and ks0 of the random
    suites 1, 2, 3 and 4242, 150 problems each, plain and with reachable
    goals."""
    out = []
    for seed, reachable in itertools.product((1, 2, 3, 4242), (False, True)):
        for problem in random_suite(seed, 150, reachable_goal=reachable):
            ctx = build_context(problem)
            for build in SPECS.values():
                out.append(simplify(ktm(problem, build(ctx, False), ctx,
                                        optimized=True)))
    return out


def test_no_kept_rule_has_a_sibling_within_its_condition_on_random_suites():
    for S in simplified_random_suites():
        assert not subsumed_rules(S), S


def test_random_suite_simplified_sizes():
    """The simplified random suites, summed: a change that grows them
    fails here.  Dropping the rules that a sibling's condition holds took
    them from 14296/38050 atoms/effects to 11644/25615."""
    encodings = simplified_random_suites()
    assert len(encodings) == 3600
    assert (sum(len(S.fluents) for S in encodings),
            sum(len(a.rules) for S in encodings for a in S.actions)) == \
        (11644, 25615)


def test_implied_conjuncts_keep_the_optimal_plans_on_random_suites():
    """Where (4) drops a conjunct, simplifying keeps whether a plan
    exists and its optimal length, and the plans found stay conformant;
    on every encoding a second ``simplify`` changes nothing."""
    fired = found = 0
    for seed, reachable in itertools.product((1, 2, 3, 505, 708),
                                             (False, True)):
        for problem in random_suite(seed, 30, reachable_goal=reachable):
            ctx = build_context(problem)
            for scheme in ("ki:1", "kmodels", "ks0"):
                K = ktm(problem, SPECS[scheme](ctx, False), ctx,
                        optimized=True)
                S, implied = _simplify_pass(K)
                if implied:  # simplify(K) repeats the pass
                    S = simplify(S)
                assert simplify(S) == S, (seed, reachable, scheme, problem)
                if not implied:
                    continue
                fired += 1
                plan = bfs_optimal(K, depth_cap=4, max_states=30_000)
                short = bfs_optimal(S, depth_cap=4, max_states=30_000)
                assert (plan is None) == (short is None), problem
                if plan is not None:
                    found += 1
                    assert short.stripped_length == plan.stripped_length
                    assert is_conformant(problem, short.stripped()), problem
    assert fired > 0 and found > 0


def test_simplify_keeps_whether_a_goal_state_is_reachable():
    """Exhaustively, where the plan comparisons above stop at depth 4: a
    goal state of the rewritten encoding K is reachable iff one of
    simplify(K) is, over random suites 1 and 2, 60 problems each of at
    most 4 fluents, plain and with reachable goals, under ki:1, kmodels
    and ks0."""
    encodings = planned = 0
    for seed, reachable in itertools.product((1, 2), (False, True)):
        for problem in random_suite(seed, 60, max_fluents=4,
                                    reachable_goal=reachable):
            ctx = build_context(problem)
            for scheme, build in SPECS.items():
                K = ktm(problem, build(ctx, False), ctx, optimized=True)
                found = [any(M.goal <= s for s in
                             reachable_classical_states(M, max_states=4_000))
                         for M in (K, simplify(K))]
                assert found[0] == found[1], (seed, reachable, scheme,
                                              problem)
                encodings += 1
                planned += found[0]
    assert encodings == 720 and 0 < planned < encodings, planned


# (seed, index in random_suite(seed, 40), scheme, optimized) where a
# setter whose condition holds two literals of one class at one value
# once signed unlike a one-literal setter, so a second pass merged more
SECOND_PASS_CASES = [(4, 20, "ks0", False), (18, 26, "ki:1", True),
                     (18, 26, "ki:1", False), (24, 12, "ki:1", False)]


@pytest.mark.parametrize("seed,index,scheme,optimized", SECOND_PASS_CASES)
def test_a_second_pass_changes_nothing(seed, index, scheme, optimized):
    problem = random_suite(seed, 40)[index]
    ctx = build_context(problem)
    S = simplify(ktm(problem, SPECS[scheme](ctx, False), ctx,
                     optimized=optimized))
    assert simplify(S) == S


@pytest.mark.parametrize("scheme", sorted(SPECS))
@pytest.mark.parametrize("n", [3, 6, 10, 16])
def test_a_second_pass_changes_nothing_on_bomb(n, scheme):
    # ktm's rewrite (5) builds no merge to Knot-armed-p.  Under ks0 the
    # first pass drops the idle rules of the merges to Knot-clogged-t and
    # reports it, so simplify runs a second pass, which drops nothing;
    # under ki:1 and kmodels K has no merge, and one pass is a fixpoint
    problem, resets = compiled_instance("bomb", (n, n))
    K = pipeline_encoding(problem, resets, scheme)
    S, dropped = _simplify_pass(K)
    if scheme == "ks0":
        assert dropped and K.merges and not S.merges
    else:
        assert not K.merges and not dropped
    assert _simplify_pass(S) == (S, False)
    assert simplify(K) == S and simplify(S) == S


@pytest.mark.parametrize("family,params,scheme,bound_mb", [
    ("bomb", (16, 16), "ki:1", 0.29), ("disjtoy", (9,), "ks0", 0.38)],
    ids=["bomb-16-16-ki:1", "disjtoy-9-ks0"])
def test_simplify_holds_little_beside_its_input(family, params, scheme,
                                               bound_mb):
    """simplify's own traced peak, above the memory of the K it is given,
    after a warm run: the same on every run of one CPython.  Its working
    state is ids, bytearrays and masks; bomb-16-16 ki:1 and disjtoy-9
    ks0 peak near 0.26 and 0.35 MB, 0.67 and 0.95 MB with the literal
    sets, the per-rule setter tuples and the frozenset signatures it held
    before."""
    if tracemalloc.is_tracing():
        pytest.skip("tracemalloc is already tracing this process")
    problem, resets = compiled_instance(family, params)
    K = pipeline_encoding(problem, resets, scheme)
    simplify(K)
    gc.collect()
    tracemalloc.start()
    try:
        simplify(K)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound_mb * 1e6


def simplified_digest():
    """The simplified encodings of ``SMALL_INSTANCES`` x ``SPECS``, as
    text in the order the program keeps them, and the PDDL that
    `kplan translate` emits for the benchmark's translate instances:
    bomb-16-16, safe-40 and sortnet-7 under ki:1, square-center-8 and
    disjtoy-9 under ks0, whose atoms are named by projections of their
    many tags, and disjtoy-9 under kmodels; for sortnet-5 under kmodels,
    where (4) chooses among literals that imply each other by name; and
    for sgripper-3 with the resets of one and two copies."""
    out = []
    for family, params in SMALL_INSTANCES:
        problem, resets = compiled_instance(family, params)
        for scheme in sorted(SPECS):
            M = simplify(pipeline_encoding(problem, resets, scheme))
            out.append([sorted(M.fluents), sorted(M.init),
                        [[a.name, sorted(a.preconditions),
                          [[sorted(r.condition), r.effect] for r in a.rules]]
                         for a in M.actions], sorted(M.goal)])
    for family, params, scheme, copies in (
            ("square-center", (8,), "ks0", 1), ("disjtoy", (9,), "ks0", 1),
            ("disjtoy", (9,), "kmodels", 1), ("sortnet", (5,), "kmodels", 1),
            ("bomb", (16, 16), "ki:1", 1), ("safe", (40,), "ki:1", 1),
            ("sortnet", (7,), "ki:1", 1), ("sgripper", (3,), "ki:1", 1),
            ("sgripper", (3,), "ki:1", 2), ("sgripper", (3,), "kmodels", 2)):
        problem, resets = compiled_instance(family, params, copies)
        out.append(pddl.emit_classical(
            simplify(pipeline_encoding(problem, resets, scheme))))
    return json.dumps(out)


# The SHA-256 of simplified_digest(): every encoding above, byte for byte.
# A change that alters one of them updates this pin and says why.
SIMPLIFIED_DIGEST_SHA256 = \
    "ce2d40ea371dcce392d8cc3a7c9c880a8a40c28372af8dcd6d103d53dd21ee02"


def test_merge_atoms_is_the_same_under_other_hash_seeds():
    here = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(here.parent / "src"), str(here)]))
    code = "import test_optimize; print(test_optimize.simplified_digest())"
    # the four children run while this process builds its own digest
    runs = {seed: subprocess.Popen([sys.executable, "-c", code],
                                   env=dict(env, PYTHONHASHSEED=seed),
                                   stdout=subprocess.PIPE, text=True)
            for seed in ("0", "1", "3", "7")}
    try:
        digest = simplified_digest()
        assert hashlib.sha256(digest.encode()).hexdigest() == \
            SIMPLIFIED_DIGEST_SHA256
        for seed, run in runs.items():
            out, _ = run.communicate(timeout=120)
            assert run.returncode == 0, seed
            assert out.strip() == digest, seed
    finally:
        for run in runs.values():
            run.kill()  # does nothing to a child that has exited
