"""The rewrite optimizations must keep translations sound and no weaker."""

import pytest

from kplan import (
    ClassicalProblem,
    PipelineConfig,
    Rule,
    SolveStatus,
    action,
    build_context,
    bfs_optimal,
    conformant_check,
    drop_unread,
    generators,
    inject_reset_effects,
    ktm,
    neg,
    nondet_compile,
    pddl,
    pipeline_solve,
    pos,
    prune,
    rule,
    solve,
    spec_ki,
    spec_kmodels,
    spec_ks0,
)
from kplan.translate import atom_name

from conftest import (build_pickdrop, coin_problem, compiled_instance,
                      is_conformant, random_suite)


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
    from kplan import make_spec
    from kplan.model import action, conformant_problem, rule
    problem = conformant_problem(
        ["x", "y", "g"], [[neg("g")]],
        [action("a", rules=[rule([pos("x")], pos("g"))])], [pos("g")])
    spec = make_spec([frozenset([pos("y")])], [], "manual", trusted=True)
    ctx = build_context(problem)
    plain = ktm(problem, spec, ctx)
    opt = ktm(problem, spec, ctx, optimized=True)
    # the tag {y} closure is {y, ~g}; every tagged atom whose literal has
    # no relevant literal in that closure collapses onto the untagged one
    assert len(plain.fluents) == 12
    assert len(opt.fluents) == 8
    assert "Ky__y" in opt.fluents and "Knot-g__y" in opt.fluents
    assert "Kg__y" not in opt.fluents and "Kx__y" not in opt.fluents


def test_collapse_only_drops_irrelevant_tags(pickdrop):
    problem, spec, t1, t2 = pickdrop
    ctx = build_context(problem)
    opt = ktm(problem, spec, ctx, optimized=True)
    # hold is reachable under both tags, so its tagged atoms survive
    assert atom_name(pos("hold"), t1) in opt.fluents
    assert atom_name(pos("hold"), t2) in opt.fluents


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


# --- dropping the atoms nothing reads ---------------------------------------

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
    dropped = drop_unread(K)
    read = read_atoms(K)
    assert mentioned_atoms(dropped) <= dropped.fluents
    # every kept atom is read, and every atom K reads is kept
    assert dropped.fluents == read == read_atoms(dropped)
    assert dropped.init == {l for l in K.init if l.fluent in read}
    assert dropped.goal == K.goal
    assert [(a.name, a.preconditions) for a in dropped.actions] == \
        [(a.name, a.preconditions) for a in K.actions]
    assert [a.rules for a in dropped.actions] == \
        [tuple(r for r in a.rules if r.effect.fluent in read)
         for a in K.actions]
    assert drop_unread(dropped) == dropped


SMALL_INSTANCES = [("safe", (4,)), ("bomb", (3, 3)), ("ring", (3,)),
                   ("square-center", (3,)), ("corners-square", (4,)),
                   ("sortnet", (3,)), ("disjtoy", (4,)), ("sgripper", (1,))]
SPECS = {"ki:1": lambda ctx, every: spec_ki(ctx, 1, include_all=every),
         "kmodels": lambda ctx, every: spec_kmodels(ctx, include_all=every),
         "ks0": lambda ctx, every: spec_ks0(ctx, include_all=every)}


def pipeline_encoding(problem, info, scheme, optimized=True):
    """The classical problem the pipeline searches before dropping, with
    the reset effects of oneof input."""
    ctx = build_context(problem)
    spec = SPECS[scheme](ctx, bool(info.resets))
    K = ktm(problem, spec, ctx, optimized=optimized)
    return inject_reset_effects(K, problem, spec, info)


@pytest.mark.parametrize("scheme", sorted(SPECS))
@pytest.mark.parametrize("family,params", SMALL_INSTANCES,
                         ids=["-".join(map(str, (f, *p)))
                              for f, p in SMALL_INSTANCES])
def test_drop_unread_invariants_on_generated(family, params, scheme):
    problem, info = compiled_instance(family, params)
    K = pipeline_encoding(problem, info, scheme)
    check_drop_unread(K)
    assert len(drop_unread(K).fluents) < len(K.fluents)


def test_drop_unread_invariants_on_random_suite():
    for problem in random_suite(707, 20, max_fluents=5, max_actions=4):
        ctx = build_context(problem)
        for spec in (spec_ki(ctx, 1), spec_kmodels(ctx), spec_ks0(ctx)):
            for optimized in (False, True):
                check_drop_unread(ktm(problem, spec, ctx,
                                      optimized=optimized))


def test_drop_unread_keeps_the_optimal_plans_on_random_suite():
    """Dropping never changes whether a plan exists, nor its optimal
    length, and the plans found stay conformant."""
    found = 0
    for problem in random_suite(505, 15, max_fluents=5, max_actions=4):
        ctx = build_context(problem)
        for spec in (spec_ki(ctx, 1), spec_kmodels(ctx)):
            K = ktm(problem, spec, ctx, optimized=True)
            plan = bfs_optimal(K, depth_cap=4, max_states=30_000)
            dropped = bfs_optimal(drop_unread(K), depth_cap=4,
                                  max_states=30_000)
            assert (plan is None) == (dropped is None), problem
            if plan is not None:
                found += 1
                assert dropped.stripped_length == plan.stripped_length
                assert is_conformant(problem, dropped.stripped()), problem
    assert found > 0


@pytest.mark.parametrize("copies", [1, 2, 3])
def test_oneof_plans_stay_conformant_when_dropping_after_the_resets(copies):
    sgripper = pddl.load(*generators.sgripper(2))
    for name, problem in (("coin", coin_problem()), ("sgripper-2", sgripper)):
        compiled, info = nondet_compile(problem, copies)
        for scheme in SPECS:
            check_drop_unread(pipeline_encoding(compiled, info, scheme))
        result = solve(drop_unread(pipeline_encoding(compiled, info, "ki:1")))
        assert result.status is SolveStatus.SOLVED, name
        assert conformant_check(compiled, result.plan.stripped()).valid, name
        plan, report = pipeline_solve(problem,
                                      PipelineConfig(max_copies=copies))
        stage = report["stages"][-1]
        judged = nondet_compile(problem, stage["copies"])[0]
        assert conformant_check(judged, plan.steps).valid, name


def test_dropping_before_the_resets_would_lose_atoms_they_read():
    compiled, info = nondet_compile(coin_problem(), 1)
    ctx = build_context(compiled)
    spec = spec_ks0(ctx, include_all=True)
    K = ktm(compiled, spec, ctx, optimized=True)
    early = inject_reset_effects(drop_unread(K), compiled, spec, info)
    assert not mentioned_atoms(early) <= early.fluents
    check_drop_unread(inject_reset_effects(K, compiled, spec, info))


# --- pruning by relaxed reachability ----------------------------------------

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
    """``prune`` spelled out over ``reached_literals`` and
    ``constant_atoms``: drop the unreached actions and rules, then the
    constant atoms and the rules that set them, then the unread atoms."""
    reached = reached_literals(K)
    if not K.goal <= reached:
        return drop_unread(K)
    constant = constant_atoms(K, reached)

    def strip(lits):
        return frozenset(l for l in lits if l.fluent not in constant)

    actions = tuple(
        a._replace(preconditions=strip(a.preconditions),
                   rules=tuple({Rule(strip(r.condition), r.effect)
                                for r in a.rules
                                if r.condition <= reached
                                and r.effect.fluent not in constant}))
        for a in K.actions if a.preconditions <= reached)
    return drop_unread(ClassicalProblem(
        K.fluents - constant,
        frozenset(l for l in K.init if l.fluent not in constant),
        actions, strip(K.goal)))


def action_table(K):
    return {a.name: (a.preconditions, frozenset(a.rules)) for a in K.actions}


def check_prune(K):
    pruned = prune(K)
    reference = reference_prune(K)
    assert mentioned_atoms(pruned) <= pruned.fluents
    assert (pruned.fluents, pruned.init, pruned.goal) == \
        (reference.fluents, reference.init, reference.goal)
    assert action_table(pruned) == action_table(reference)
    for a in pruned.actions:
        assert len(set(a.rules)) == len(a.rules), a.name
    # the kept actions keep their order
    names = [a.name for a in K.actions]
    assert [a.name for a in pruned.actions] == \
        [n for n in names if n in action_table(pruned)]
    assert pruned.fluents == read_atoms(pruned) <= read_atoms(K)
    if K.goal <= reached_literals(K):
        # nothing left is constant, or never fires
        reached = reached_literals(pruned)
        assert not constant_atoms(pruned, reached)
        assert all(r.condition <= reached and a.preconditions <= reached
                   for a in pruned.actions for r in a.rules)
    else:
        assert pruned == drop_unread(K)
    assert prune(pruned) == pruned
    return pruned


@pytest.mark.parametrize("scheme", sorted(SPECS))
@pytest.mark.parametrize("family,params", SMALL_INSTANCES,
                         ids=["-".join(map(str, (f, *p)))
                              for f, p in SMALL_INSTANCES])
def test_prune_invariants_on_generated(family, params, scheme):
    problem, info = compiled_instance(family, params)
    for optimized in (False, True):
        K = pipeline_encoding(problem, info, scheme, optimized)
        pruned = check_prune(K)
        assert len(pruned.fluents) <= len(drop_unread(K).fluents)


def test_prune_invariants_on_random_suite():
    for problem in random_suite(707, 20, max_fluents=5, max_actions=4):
        ctx = build_context(problem)
        for spec in (spec_ki(ctx, 1), spec_kmodels(ctx), spec_ks0(ctx)):
            for optimized in (False, True):
                check_prune(ktm(problem, spec, ctx, optimized=optimized))


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
    pruned = check_prune(K)
    assert pruned == ClassicalProblem(
        frozenset(["x", "g"]), frozenset(),
        (action("a", [], [rule([], pos("x"))]),
         action("d", [], [rule([pos("x")], pos("g"))])),
        frozenset([pos("g")]))


def test_prune_leaves_an_unreachable_goal_to_the_planner():
    K = ClassicalProblem(
        frozenset(["p", "g", "q"]), frozenset(),
        (action("a", [], [rule([pos("p")], pos("g")), rule([], pos("q"))]),),
        frozenset([pos("g")]))
    assert prune(K) == drop_unread(K)
    assert solve(prune(K)).status is SolveStatus.UNSOLVABLE


def step(s, a):
    """The literals that applying ``a`` in state ``s`` adds."""
    return {r.effect for r in a.rules if r.condition <= s}


def clashes(add, atoms):
    """The atoms among ``atoms`` that ``add`` sets both true and false,
    on which applying the action raises InconsistentResult."""
    return ({f for f, positive in add if positive}
            & {f for f, positive in add if not positive} & atoms)


@pytest.mark.parametrize("scheme", sorted(SPECS))
@pytest.mark.parametrize("family,params", SMALL_INSTANCES,
                         ids=["-".join(map(str, (f, *p)))
                              for f, p in SMALL_INSTANCES])
def test_prune_keeps_every_reachable_step(family, params, scheme):
    """On every state reachable in K, the pruned problem applies the same
    actions, gives its atoms the same values, raises on the same clashes
    among its atoms, and tests the goal alike."""
    problem, info = compiled_instance(family, params)
    K = pipeline_encoding(problem, info, scheme)
    pruned = prune(K)
    kept = pruned.fluents
    by_name = {a.name: a for a in pruned.actions}
    start = K.initial_state()
    assert pruned.initial_state() == {l for l in start if l.fluent in kept}
    seen, frontier = {start}, [start]
    while frontier:
        s = frontier.pop()
        p = frozenset(l for l in s if l.fluent in kept)
        assert (K.goal <= s) == (pruned.goal <= p)
        for a in K.actions:
            b = by_name.get(a.name)
            assert (a.preconditions <= s) == \
                (b is not None and b.preconditions <= p)
            if b is None or not b.preconditions <= p:
                continue
            add, pruned_add = step(s, a), step(p, b)
            assert {l for l in add if l.fluent in kept} == pruned_add
            assert clashes(add, kept) == clashes(pruned_add, kept)
            if not clashes(add, K.fluents):
                nxt = s.difference([l.negate() for l in add]) | add
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
    assert len(seen) > 1


def test_prune_keeps_the_optimal_plans_on_random_suite():
    """Pruning never changes whether a plan exists, nor its optimal
    length, and the plans found stay conformant."""
    found = 0
    for problem in random_suite(505, 15, max_fluents=5, max_actions=4):
        ctx = build_context(problem)
        for spec in (spec_ki(ctx, 1), spec_kmodels(ctx)):
            for optimized in (False, True):
                K = ktm(problem, spec, ctx, optimized=optimized)
                plan = bfs_optimal(K, depth_cap=4, max_states=30_000)
                pruned = bfs_optimal(prune(K), depth_cap=4,
                                     max_states=30_000)
                assert (plan is None) == (pruned is None), problem
                if plan is not None:
                    found += 1
                    assert pruned.stripped_length == plan.stripped_length
                    assert is_conformant(problem, pruned.stripped()), problem
    assert found > 0


@pytest.mark.parametrize("copies", [1, 2])
def test_pruning_runs_after_the_resets(copies):
    """The reset effects make tagged atoms settable again: pruning before
    them keeps a different problem, whose reset rules mention atoms it no
    longer declares."""
    sgripper = pddl.load(*generators.sgripper(2))
    for name, problem in (("coin", coin_problem()), ("sgripper-2", sgripper)):
        compiled, info = nondet_compile(problem, copies)
        ctx = build_context(compiled)
        for scheme in SPECS:
            spec = SPECS[scheme](ctx, True)
            K = ktm(compiled, spec, ctx, optimized=True)
            late = check_prune(inject_reset_effects(K, compiled, spec, info))
            early = inject_reset_effects(prune(K), compiled, spec, info)
            assert early != late, (name, scheme)
            assert not mentioned_atoms(early) <= early.fluents, (name, scheme)
