"""The translation family: core builder, spec builders, goal compilation."""

import pytest

from kplan import (
    EMPTY_TAG,
    InvalidSpec,
    Merge,
    Plan,
    build_context,
    cnf_goal_compile,
    conformant_check,
    ktm,
    make_spec,
    neg,
    pos,
    run_plan,
    spec_k0,
    spec_ki,
    spec_kmodels,
    spec_ks0,
)
from kplan import pddl
from kplan.analysis import all_literals
from kplan.errors import CapExceeded, UnsupportedFeature
from kplan.model import NondetRule, action, conformant_problem, rule
from kplan.translate import (
    MERGE_PREFIX,
    STATIC_ACTION_NAME,
    TranslationSpec,
    atom_name,
    inject_reset_effects,
    merge_action_name,
    tag_digest,
    tag_table,
)

from conftest import (
    BENCH_INSTANCES,
    TINY_BAD,
    TINY_PLAN,
    classical_accepts,
    compiled_instance,
    is_conformant,
    random_suite,
    reference_ktm,
    reference_spec_ki,
)
from kplan.planner import bfs_optimal


def test_atom_naming():
    assert atom_name(pos("p")) == "Kp"
    assert atom_name(neg("p")) == "Knot-p"
    t = frozenset([pos("a"), neg("b")])
    assert atom_name(pos("p"), t) == "Kp__a__not-b"
    assert len(tag_digest([t])) == 8


def test_basic_translation_shape(tiny):
    K = ktm(tiny, spec_k0())
    assert K.fluents == {"Kp", "Knot-p", "Kq", "Knot-q", "Kr", "Knot-r"}
    assert K.init == frozenset([pos("Kq")])
    assert K.goal == frozenset([pos("Kp"), pos("Kr")])
    assert K.merges == frozenset()
    a = K.action_by_name("a")
    assert set(a.rules) == {
        rule([pos("Kq")], pos("Kr")),
        rule([neg("Knot-q")], neg("Knot-r")),
        rule([pos("Kp")], pos("Knot-p")),
        rule([neg("Knot-p")], neg("Kp")),
    }
    b = K.action_by_name("b")
    assert set(b.rules) == {
        rule([pos("Kq")], pos("Kp")),
        rule([neg("Knot-q")], neg("Knot-p")),
    }


def test_basic_translation_plans(tiny):
    K = ktm(tiny, spec_k0())
    assert classical_accepts(K, TINY_PLAN)
    assert not classical_accepts(K, TINY_BAD)


def test_spec_requires_empty_tag():
    with pytest.raises(InvalidSpec):
        TranslationSpec((frozenset([pos("p")]),), (), "manual")
    spec = make_spec([frozenset([pos("p")])], [], "manual")
    assert frozenset() in spec.tags
    # every merge tag must be a tag, so each has a table in ktm
    t = frozenset([pos("p")])
    with pytest.raises(InvalidSpec):
        TranslationSpec((frozenset(),), (Merge(frozenset([t]), pos("q")),),
                        "manual")


def test_ktm_validates_untrusted_specs(tiny):
    bad_merge = Merge(frozenset([frozenset([pos("p")])]), pos("p"))
    spec = make_spec([], [bad_merge], "manual")  # I does not entail p
    with pytest.raises(InvalidSpec):
        ktm(tiny, spec)
    bad_tag = make_spec([frozenset([neg("q")])], [], "manual")
    with pytest.raises(InvalidSpec):
        ktm(tiny, bad_tag)


def test_ktm_rejects_uncompiled_input(tiny):
    clause_goal = conformant_problem(
        ["p"], [], [action("a", rules=[rule([], pos("p"))])], [],
        goal_clauses=[frozenset([pos("p")])])
    with pytest.raises(UnsupportedFeature):
        ktm(clause_goal, spec_k0())
    nondet = conformant_problem(
        ["p", "q"], [[neg("p")], [neg("q")]],
        [action("a", nondet_rules=[NondetRule(
            frozenset(), (frozenset([pos("p")]), frozenset([pos("q")])))])],
        [pos("p")])
    with pytest.raises(UnsupportedFeature):
        ktm(nondet, spec_k0())


def test_tagged_translation_on_pickdrop(pickdrop):
    problem, spec, t1, t2 = pickdrop
    K = ktm(problem, spec)
    # conditional knowledge is seeded from the tag closures
    assert pos(atom_name(pos("at-l1"), t1)) in K.init
    assert pos(atom_name(neg("at-l2"), t1)) in K.init
    assert pos(atom_name(neg("hold"))) in K.init
    m3 = merge_action_name(Merge(frozenset([t1, t2]), pos("at-l3")))
    mh = merge_action_name(Merge(frozenset([t1, t2]), pos("hold")))
    assert K.merges == {m3, mh}
    good = ("pick-l1", "drop-l3", "pick-l2", "drop-l3", m3)
    assert classical_accepts(K, good)
    bad = ("pick-l1", "pick-l2", mh, "drop-l3")
    assert not classical_accepts(K, bad)
    # the accepted plan, stripped of merges, is conformant
    assert is_conformant(problem, Plan.for_problem(good, K).stripped())


def test_spec_ks0(tiny):
    ctx = build_context(tiny)
    spec = spec_ks0(ctx)
    # unknown fluents p, r: four restricted initial states as tags
    nonempty = [t for t in spec.tags if t]
    assert len(nonempty) == 4
    assert all(len(t) == 2 for t in nonempty)
    assert {m.target for m in spec.merges} == {pos("p"), pos("r")}
    K = ktm(tiny, spec, ctx)
    assert classical_accepts(K, TINY_PLAN)


def test_spec_kmodels(tiny):
    ctx = build_context(tiny)
    spec = spec_kmodels(ctx)
    targets = {m.target for m in spec.merges}
    assert targets == {pos("p")}  # r has no relevant uncertainty clauses
    (m,) = spec.merges
    assert m.tags == frozenset([frozenset([pos("p")]),
                                frozenset([neg("p")])])
    assert ctx.pi.merge_valid(m)


def test_spec_ki_zero_equals_basic(tiny):
    ctx = build_context(tiny)
    spec = spec_ki(ctx, 0)
    assert spec.merges == ()
    K = ktm(tiny, spec, ctx)
    assert K.fluents == ktm(tiny, spec_k0(), ctx).fluents


def test_spec_ki_one_solves_tiny(tiny):
    ctx = build_context(tiny)
    K = ktm(tiny, spec_ki(ctx, 1), ctx)
    plan = bfs_optimal(K, depth_cap=4)
    assert plan is not None
    assert is_conformant(tiny, plan.stripped())


def test_scheme_entry_points_are_sound_on_random_problems():
    for problem in random_suite(303, 12, max_fluents=5, max_actions=4):
        ctx = build_context(problem)
        for spec in (spec_k0(), spec_ki(ctx, 1), spec_kmodels(ctx),
                     spec_ks0(ctx)):
            K = ktm(problem, spec, ctx)
            plan = bfs_optimal(K, depth_cap=4, max_states=30_000)
            if plan is not None:
                assert is_conformant(problem, plan.stripped()), problem


def test_cnf_goal_compile_roundtrip():
    problem = conformant_problem(
        ["p", "q"], [[pos("p"), pos("q")]],
        [action("a", rules=[rule([pos("p")], pos("q")),
                            rule([pos("q")], pos("p"))])],
        [], goal_clauses=[frozenset([pos("p"), pos("q")])])
    compiled = cnf_goal_compile(problem)
    assert compiled.goal_clauses == ()
    assert any(f.startswith("goal-c") for f in compiled.fluents)
    # the disjunctive goal holds initially, so evaluating it suffices
    verdict = conformant_check(compiled, ("eval-goal-c0",))
    assert verdict.valid
    # the evaluator is single-shot
    twice = conformant_check(compiled, ("eval-goal-c0", "eval-goal-c0"))
    assert not twice.valid and "precondition" in twice.reason.lower()


def test_cnf_goal_compile_noop_without_clause_goals(tiny):
    assert cnf_goal_compile(tiny) is tiny


def test_optimized_static_disjunction_action(tiny):
    # tiny has no static non-unit clauses, so no deduction action
    ctx = build_context(tiny)
    K = ktm(tiny, spec_k0(), ctx, optimized=True)
    names = {a.name for a in K.actions}
    assert STATIC_ACTION_NAME not in names
    # a purely static disjunction yields case-elimination rules
    static = conformant_problem(
        ["x1", "x2", "g"],
        [[pos("x1"), pos("x2")], [neg("g")]],
        [action("go1", rules=[rule([pos("x1")], pos("g"))]),
         action("go2", rules=[rule([pos("x2")], pos("g"))])],
        [pos("g")])
    K2 = ktm(static, spec_ki(build_context(static), 1),
             build_context(static), optimized=True)
    assert STATIC_ACTION_NAME in {a.name for a in K2.actions}
    assert STATIC_ACTION_NAME in K2.merges
    assert STATIC_ACTION_NAME.startswith(MERGE_PREFIX)


def test_merge_actions_conclude_and_are_repeatable(pickdrop):
    problem, spec, t1, t2 = pickdrop
    K = ktm(problem, spec)
    m3 = merge_action_name(Merge(frozenset([t1, t2]), pos("at-l3")))
    a = K.action_by_name(m3)
    assert a.preconditions == frozenset()
    heads = {r.effect for r in a.rules}
    assert pos(atom_name(pos("at-l3"))) in heads
    cond = next(iter(a.rules)).condition
    assert cond == frozenset([pos(atom_name(pos("at-l3"), t1)),
                              pos(atom_name(pos("at-l3"), t2))])
    # applying the merge twice is harmless
    steps = ("pick-l1", "drop-l3", "pick-l2", "drop-l3", m3, m3)
    assert classical_accepts(K, steps)


# --- the table-driven builder against the reference builder ----------------------

SPECS = {
    "k0": lambda ctx, include_all: spec_k0(),
    "ki:1": lambda ctx, include_all: spec_ki(ctx, 1, include_all),
    "ks0": lambda ctx, include_all: spec_ks0(ctx, include_all=include_all),
    "kmodels": lambda ctx, include_all: spec_kmodels(
        ctx, include_all=include_all),
}


def _check_against_reference(problem, spec, ctx, info=None):
    for optimized in (True, False):
        got = ktm(problem, spec, ctx, optimized=optimized, validate=False)
        want = reference_ktm(problem, spec, ctx, optimized=optimized,
                             validate=False)
        if info is not None:
            got = inject_reset_effects(got, problem, spec, info)
            want = inject_reset_effects(want, problem, spec, info)
        assert got == want, (spec.scheme, optimized)
        assert pddl.emit_classical(got) == pddl.emit_classical(want)


def test_ktm_matches_reference_on_random_suite():
    checked = dict.fromkeys(SPECS, 0)
    for problem in random_suite(515, 40):
        ctx = build_context(problem)
        for scheme, build in SPECS.items():
            try:
                spec = build(ctx, False)
            except CapExceeded:
                continue
            _check_against_reference(problem, spec, ctx)
            checked[scheme] += 1
    assert min(checked.values()) >= 30, checked


# The benchmark's instances (perfbench/workloads.py) with the scheme each
# is translated with: the translate workload's scheme, or ki:1, the first
# stage of the solve ladder.
BENCH_TRANSLATIONS = (
    ("bomb", (10, 10), "ki:1"), ("bomb", (12, 4), "ki:1"),
    ("safe", (25,), "ki:1"), ("square-center", (6,), "ki:1"),
    ("corners-square", (8,), "ki:1"), ("ring", (4,), "ki:1"),
    ("sgripper", (3,), "ki:1"), ("bomb", (16, 16), "ki:1"),
    ("safe", (40,), "ki:1"), ("disjtoy", (9,), "ks0"),
    ("square-center", (8,), "ks0"), ("disjtoy", (9,), "kmodels"),
    ("sortnet", (7,), "ki:1"),
)


@pytest.mark.parametrize(
    "family,params,scheme", BENCH_TRANSLATIONS,
    ids=["-".join(map(str, (f, *p, s))) for f, p, s in BENCH_TRANSLATIONS])
def test_ktm_matches_reference_on_benchmark_instances(family, params, scheme):
    problem, info = compiled_instance(family, params)
    ctx = build_context(problem)
    # the pipeline targets every literal on oneof input
    spec = SPECS[scheme](ctx, bool(info.resets))
    _check_against_reference(problem, spec, ctx, info)


def test_ktm_matches_reference_on_nondet_gripper_with_resets():
    for copies in (1, 2):
        problem, info = compiled_instance("sgripper", (2,), copies)
        ctx = build_context(problem)
        for scheme in ("ki:1", "kmodels"):
            _check_against_reference(problem, SPECS[scheme](ctx, True),
                                     ctx, info)


def test_tag_table_names_follow_atom_name():
    problem = conformant_problem(
        ["p", "q", "r"], [[pos("p"), pos("q")]],
        [action("a", rules=[rule([pos("p")], pos("r"))])], [pos("r")])
    ctx = build_context(problem)
    plain = {L: atom_name(L) for L in all_literals(problem.fluents)}
    t = frozenset([neg("p"), pos("q")])
    table = tag_table(t, ctx, plain, (), optimized=False)
    assert table.names == {L: atom_name(L, t) for L in plain}
    assert table.names[pos("r")] == "Kr__not-p__q"
    # optimized, KL/t collapses onto KL where t* = {~p, q} holds nothing
    # relevant to L
    table = tag_table(t, ctx, plain, (pos("r"),), optimized=True)
    assert pos("r") in table.collapsed and pos("q") not in table.collapsed
    for L, name in table.names.items():
        assert name == atom_name(L, EMPTY_TAG if L in table.collapsed else t)


# --- spec_ki from the width search against its own subset search --------------

def _check_spec_ki_against_reference(ctx, include_all=False):
    for i in (0, 1, 2):
        got = spec_ki(ctx, i, include_all)
        want = reference_spec_ki(ctx, i, include_all)
        assert (got.tags, got.merges) == (want.tags, want.merges), i
        assert got.scheme == f"ki:{i}"


def test_spec_ki_matches_reference_on_random_suite():
    for problem in random_suite(616, 40):
        _check_spec_ki_against_reference(build_context(problem))


@pytest.mark.parametrize("family,params", BENCH_INSTANCES,
                         ids=["-".join(map(str, (f, *p)))
                              for f, p in BENCH_INSTANCES])
def test_spec_ki_matches_reference_on_generated(family, params):
    problem, info = compiled_instance(family, params)
    _check_spec_ki_against_reference(build_context(problem),
                                     bool(info.resets))
