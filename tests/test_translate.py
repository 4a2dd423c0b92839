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
from kplan.analysis import all_literals, masked
from kplan.errors import CapExceeded, UnsupportedFeature
from kplan.model import NondetRule, Rule, conformant_problem
from kplan.pi import PICNF
from kplan.translate import (
    TranslationSpec,
    atom_name,
    inject_reset_effects,
    merge_action_name,
    nondet_compile,
    projections,
    simplify,
    tag_digest,
)

from conftest import (
    BENCH_INSTANCES,
    SMALL_INSTANCES,
    TINY_BAD,
    TINY_PLAN,
    action,
    classical_accepts,
    coin_problem,
    compiled_instance,
    fold_reference,
    is_conformant,
    project_reference,
    random_suite,
    reference_ktm,
    reference_spec_ki,
    reference_spec_kmodels,
    reference_spec_ks0,
    rule,
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
        TranslationSpec((frozenset([pos("p")]),), ())
    spec = make_spec([frozenset([pos("p")])], [])
    assert frozenset() in spec.tags
    # every merge tag must be a tag, so ktm knows each one's atoms
    t = frozenset([pos("p")])
    with pytest.raises(InvalidSpec):
        TranslationSpec((frozenset(),), (Merge(frozenset([t]), pos("q")),))


def test_ktm_validates_untrusted_specs(tiny):
    bad_merge = Merge(frozenset([frozenset([pos("p")])]), pos("p"))
    spec = make_spec([], [bad_merge])  # I does not entail p
    with pytest.raises(InvalidSpec):
        ktm(tiny, spec)
    bad_tag = make_spec([frozenset([neg("q")])], [])
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
    assert is_conformant(problem, Plan(good).stripped())


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
    "ks0": lambda ctx, include_all: spec_ks0(ctx),
    "kmodels": lambda ctx, include_all: spec_kmodels(
        ctx, include_all=include_all),
}


def _check_against_reference(problem, spec, ctx, resets=None):
    """ktm builds reference_ktm's encoding: without the rewrites the same
    one, with them the same once each KL/t is renamed KL/p and the static
    literals are folded; and with the rewrites, also once the reset
    effects are injected."""
    for optimized in (True, False):
        got = ktm(problem, spec, ctx, optimized=optimized)
        want = reference_ktm(problem, spec, ctx, optimized=optimized,
                             validate=False)
        if optimized:
            want = fold_reference(project_reference(want, problem, spec, ctx),
                                  problem, spec, ctx)
            if resets is not None:
                got = inject_reset_effects(got, ctx, spec, resets)
                want = inject_reset_effects(want, ctx, spec, resets)
        assert got == want, optimized
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
    problem, resets = compiled_instance(family, params)
    ctx = build_context(problem)
    # the pipeline targets every literal on oneof input
    spec = SPECS[scheme](ctx, bool(resets))
    _check_against_reference(problem, spec, ctx, resets)


def test_ktm_matches_reference_on_nondet_gripper_with_resets():
    for copies in (1, 2):
        problem, resets = compiled_instance("sgripper", (2,), copies)
        ctx = build_context(problem)
        for scheme in ("ki:1", "kmodels"):
            _check_against_reference(problem, SPECS[scheme](ctx, True),
                                     ctx, resets)


def _check_folding_changes_no_simplified_output(problem, spec, ctx,
                                                resets=None):
    """simplify emits the same problem from ktm's encoding as from the
    projected reference, where no literal is folded.  Returns whether the
    reference holds what only the widened fold leaves out: a rule that
    deletes an atom, or reads it, where that atom never becomes true and
    some rule deletes it (of a fluent that some source rule sets)."""
    got = ktm(problem, spec, ctx, optimized=True)
    want = project_reference(
        reference_ktm(problem, spec, ctx, optimized=True, validate=False),
        problem, spec, ctx)
    if resets:
        got = inject_reset_effects(got, ctx, spec, resets)
        want = inject_reset_effects(want, ctx, spec, resets)
    assert pddl.emit_classical(simplify(got)) == \
        pddl.emit_classical(simplify(want))
    effects = [r.effect for a in want.actions for r in a.rules]
    never_true = {l.fluent for l in effects if not l.positive}.difference(
        [l.fluent for l in effects if l.positive],
        [l.fluent for l in want.init if l.positive])
    return bool(never_true)


def test_folding_changes_no_simplified_output_on_random_suites():
    checked = widened = 0
    for problem in (random_suite(515, 40)
                    + random_suite(516, 40, reachable_goal=True)):
        ctx = build_context(problem)
        for build in SPECS.values():
            try:
                spec = build(ctx, False)
            except CapExceeded:
                continue
            widened += _check_folding_changes_no_simplified_output(
                problem, spec, ctx)
            checked += 1
    assert checked >= 250, checked
    assert widened >= 250, widened


@pytest.mark.parametrize("copies", [1, 2, 3])
@pytest.mark.parametrize("instance", ["coin", "sgripper-1", "sgripper-2",
                                      "sgripper-3"])
def test_folding_changes_no_simplified_output_with_resets(instance, copies):
    if instance == "coin":
        problem, resets = nondet_compile(coin_problem(), copies)
    else:
        problem, resets = compiled_instance(
            "sgripper", (int(instance.split("-")[1]),), copies)
    ctx = build_context(problem)
    for scheme in ("ki:1", "kmodels"):
        _check_folding_changes_no_simplified_output(
            problem, SPECS[scheme](ctx, True), ctx, resets)


# --- equal objects are shared ------------------------------------------------

SHARED = [("disjtoy", (9,), "ks0"), ("square-center", (8,), "ks0"),
          ("bomb", (16, 16), "ki:1")]


def _check_one_object_per_value(K):
    """Each condition (rule condition or precondition) and each literal of
    K (in a condition, an effect, the goal or the initial state) is one
    object per distinct value."""
    conds = [a.preconditions for a in K.actions]
    conds += [r.condition for a in K.actions for r in a.rules]
    lits = [l for c in conds for l in c] + list(K.goal) + list(K.init)
    lits += [r.effect for a in K.actions for r in a.rules]
    assert len(set(map(id, conds))) == len(set(conds))
    assert len(set(map(id, lits))) == len(set(lits))


@pytest.mark.parametrize("family,params,scheme", SHARED,
                         ids=["-".join(map(str, (f, *p, s)))
                              for f, p, s in SHARED])
def test_ktm_and_simplify_share_equal_objects(family, params, scheme):
    problem = compiled_instance(family, params)[0]
    ctx = build_context(problem)
    K = ktm(problem, SPECS[scheme](ctx, False), ctx, optimized=True)
    _check_one_object_per_value(K)


def test_tag_table_names_follow_atom_name():
    # s holds initially and is relevant to r; {~p, q} and {p} cover I
    problem = conformant_problem(
        ["p", "q", "r", "s"], [[pos("p"), pos("q")], [pos("s")]],
        [action("a", rules=[rule([pos("p"), pos("s")], pos("r"))])],
        [pos("r")])
    ctx = build_context(problem)
    t, u = frozenset([neg("p"), pos("q")]), frozenset([pos("p")])
    a = atom_name
    K = ktm(problem, make_spec([t], []), ctx)
    assert K.fluents == {a(L, p) for L in all_literals(problem.fluents)
                         for p in (EMPTY_TAG, t)}
    assert a(pos("r"), t) == "Kr__not-p__q"
    # KL/t starts true iff L is in t* = {~p, q, s}
    assert K.init == {pos(a(neg("p"), t)), pos(a(pos("q"), t)),
                      pos(a(pos("s"), t)), pos("Ks")}
    assert Rule(frozenset([pos(a(pos("p"), t)), pos(a(pos("s"), t))]),
                pos(a(pos("r"), t))) in K.actions[0].rules
    # optimized, KL/t is KL/p for the projection p of t onto L: the
    # literals of t* relevant to L, less s, which the empty tag's closure
    # holds.  So Kr/t is Kr, though s is relevant to r.  Only the heads
    # relevant to the merged ~r keep their rules at t, and at u none
    # does, so the merge reads K~r there.  The projections are masks over
    # the context's literals.
    def projected(tag):
        return {L: set(masked(ctx.rel.lits, p))
                for L, p in projections(tag, ctx)[1].items()}
    assert projected(t) == {neg("p"): {neg("p")},
                            neg("r"): {neg("p")}, pos("q"): {pos("q")}}
    assert projected(u) == {pos("p"): {pos("p")}, pos("r"): {pos("p")}}
    m = Merge(frozenset([t, u]), neg("r"))
    K = ktm(problem, make_spec([], [m]), ctx, optimized=True)
    # no rule sets p or s, so their atoms are constants: Kp and K~p are
    # false, K~p/{~p} is true, and K~s is false.  The merge sets Ks, as ~s
    # is mutex with ~r (I entails s), so Ks is not folded.  So the
    # support rule Kp, Ks -> Kr is not built, nor is the cancellation rule
    # at {~p}, ~K~p/{~p}, ~K~s -> ~K~r/{~p}; the one at the empty tag loses
    # both its conjuncts.  KL/p starts true iff L is in p or I entails L.
    assert K.fluents == {"Kr", "Knot-r", "Knot-r__not-p", "Ks"}
    assert K.init == {pos("Ks")}
    assert K.action_by_name("a").rules == (Rule(frozenset(), neg("Knot-r")),)
    merge = K.action_by_name(merge_action_name(m))
    assert {r.condition for r in merge.rules} == {
        frozenset([pos("Knot-r__not-p"), pos("Knot-r")])}


def test_ktm_refuses_two_atoms_that_take_one_name():
    def refusal(problem, spec, optimized):
        with pytest.raises(UnsupportedFeature) as exc:
            ktm(problem, spec, optimized=optimized)
        return str(exc.value)

    # each message names the two atoms; test_cli covers the negation
    # prefix and the exit code
    problem = conformant_problem(
        ["p", "q", "p__q", "r"], [[pos("p"), pos("q")]],
        [action("a", rules=[rule([pos("q")], pos("p"))]),
         action("b", rules=[rule([pos("p")], pos("r"))])], [pos("r")])
    t, u = frozenset([pos("q")]), frozenset([pos("p"), neg("q")])
    spec = make_spec([], [Merge(frozenset([t, u]), pos("r"))])
    assert refusal(problem, spec, False) == (
        "the knowledge atoms of ~p__q and of ~p under the tag {q} both "
        "take the name 'Knot-p__q'")
    assert refusal(problem, spec, True) == (
        "the knowledge atoms of p__q and of p under the tag {q} both take "
        "the name 'Kp__q'")
    # two tagged atoms; only projecting {r, ~q__r} onto p__q to {r} makes
    # their names meet
    problem = conformant_problem(
        ["p", "q__r", "p__q", "r", "g"], [[pos("q__r"), pos("r")]],
        [action("a", rules=[rule([pos("q__r")], pos("p")),
                            rule([pos("r")], pos("p__q")),
                            rule([pos("p"), pos("p__q")], pos("g"))])],
        [pos("g")])
    t, u = frozenset([pos("q__r")]), frozenset([pos("r"), neg("q__r")])
    spec = make_spec([], [Merge(frozenset([t, u]), pos("g"))])
    ktm(problem, spec)
    assert refusal(problem, spec, True) == (
        "the knowledge atoms of p__q under the tag {r} and of p under the "
        "tag {q__r} both take the name 'Kp__q__r'")


def mentioned_atoms(K):
    """The atoms that K's goal, preconditions and rules name."""
    lits = set(K.goal)
    for a in K.actions:
        lits |= a.preconditions
        for r in a.rules:
            lits |= r.condition
            lits.add(r.effect)
    return {l.fluent for l in lits}


def assert_ktm_declares_what_it_mentions(problem, spec, ctx):
    """Optimized, ktm declares exactly the atoms that its rules, merges,
    goal and preconditions name; without the rewrites, KL/t for every
    literal L at every tag t."""
    lits = all_literals(problem.fluents)
    K = ktm(problem, spec, ctx, optimized=True)
    assert K.fluents == mentioned_atoms(K)
    assert ktm(problem, spec, ctx).fluents == {
        atom_name(L, t) for L in lits for t in spec.tags}


@pytest.mark.parametrize(
    "family,params,scheme", BENCH_TRANSLATIONS,
    ids=["-".join(map(str, (f, *p, s))) for f, p, s in BENCH_TRANSLATIONS])
def test_ktm_declares_what_it_mentions_on_benchmark_instances(
        family, params, scheme):
    problem, resets = compiled_instance(family, params)
    ctx = build_context(problem)
    spec = SPECS[scheme](ctx, bool(resets))
    assert_ktm_declares_what_it_mentions(problem, spec, ctx)


def test_ktm_declares_what_it_mentions_on_random_suites():
    checked = 0
    for seed in (1, 2, 3):
        for problem in random_suite(seed, 40):
            ctx = build_context(problem)
            for scheme in ("ki:1", "ks0", "kmodels"):
                try:
                    spec = SPECS[scheme](ctx, False)
                except CapExceeded:
                    continue
                assert_ktm_declares_what_it_mentions(problem, spec, ctx)
                checked += 1
    assert checked >= 300, checked


# --- spec_ki from the width search against its own subset search --------------

def _check_spec_ki_against_reference(ctx, include_all=False):
    for i in (0, 1, 2):
        got = spec_ki(ctx, i, include_all)
        want = reference_spec_ki(ctx, i, include_all)
        assert (got.tags, got.merges) == (want.tags, want.merges), i


def test_spec_ki_matches_reference_on_random_suite():
    for problem in random_suite(616, 40):
        _check_spec_ki_against_reference(build_context(problem))


@pytest.mark.parametrize("family,params", BENCH_INSTANCES,
                         ids=["-".join(map(str, (f, *p)))
                              for f, p in BENCH_INSTANCES])
def test_spec_ki_matches_reference_on_generated(family, params):
    problem, resets = compiled_instance(family, params)
    _check_spec_ki_against_reference(build_context(problem),
                                     bool(resets))


# --- spec_ks0 and spec_kmodels against their re-checking forms -----------------

def _spec_or_error(build, ctx, caps):
    try:
        return build(ctx, **caps)
    except CapExceeded as exc:
        return type(exc), str(exc)


def _check_model_specs_against_reference(ctx, include_all):
    """The model-based specs, which trust the PI form, equal the forms that
    re-check it, cap errors and their messages included; returns the
    outcomes compared.  ``spec_ks0`` merges to the targets alone, so it
    is compared only without ``include_all``."""
    cases = [(spec_kmodels, reference_spec_kmodels,
              {"include_all": include_all})]
    if not include_all:
        cases.insert(0, (spec_ks0, reference_spec_ks0, {}))
    outcomes = []
    for build, reference, options in cases:
        for caps in ({}, {"cap": 8}, {"cap": 4}):
            got = _spec_or_error(build, ctx, dict(options, **caps))
            want = _spec_or_error(reference, ctx, dict(options, **caps))
            assert got == want, (build.__name__, caps)
            outcomes.append(got)
    return outcomes


def test_model_specs_match_reference_on_random_suites():
    suites = [random_suite(seed, 20) for seed in range(1, 31)]
    suites += [random_suite(seed, 20, reachable_goal=True)
               for seed in range(1, 11)]
    outcomes = []
    for suite in suites:
        for problem in suite:
            ctx = build_context(problem)
            for include_all in (False, True):
                outcomes += _check_model_specs_against_reference(
                    ctx, include_all)
    errors = sum(isinstance(o, tuple) for o in outcomes)
    assert len(outcomes) == 40 * 20 * (6 + 3)
    assert errors >= 1000 and len(outcomes) - errors >= 5000, errors


GENERATED = BENCH_INSTANCES + tuple(SMALL_INSTANCES)


@pytest.mark.parametrize("family,params", GENERATED,
                         ids=["-".join(map(str, (f, *p)))
                              for f, p in GENERATED])
def test_model_specs_match_reference_on_generated(family, params):
    problem, resets = compiled_instance(family, params)
    _check_model_specs_against_reference(build_context(problem), bool(resets))


@pytest.mark.parametrize("family,params,models", [
    ("sortnet", (6,), [64]), ("sortnet", (7,), [128]),
    ("disjtoy", (9,), [511]), ("bomb", (3, 3), [2, 2, 2])])
def test_spec_kmodels_enumerates_each_variable_set_once(monkeypatch, family,
                                                        params, models):
    """spec_kmodels enumerates the models over each distinct set of
    variables once, however many target literals share it: the six goal
    literals of sortnet-7 share one set of 7 fluents (768 models in six
    enumerations, 128 in one)."""
    problem, resets = compiled_instance(family, params)
    ctx = build_context(problem)
    enumerated = []
    models_of = PICNF.models

    def spy(self, variables, cap):
        found = list(models_of(self, variables, cap))
        enumerated.append((frozenset(variables), len(found)))
        return iter(found)

    monkeypatch.setattr(PICNF, "models", spy)
    spec = spec_kmodels(ctx, include_all=bool(resets))
    shared = {frozenset(l.fluent for c in ctx.relevant_clause_set(m.target)
                        .clauses for l in c) for m in spec.merges}
    assert len({v for v, _ in enumerated}) == len(enumerated) == len(shared)
    assert sorted(n for _, n in enumerated) == models


@pytest.mark.parametrize("family,params", BENCH_INSTANCES,
                         ids=["-".join(map(str, (f, *p)))
                              for f, p in BENCH_INSTANCES])
def test_merges_are_the_merge_actions_ktm_adds(family, params):
    problem = compiled_instance(family, params)[0]
    ctx = build_context(problem)
    source = {a.name for a in problem.actions}
    # rewrite (5) builds no merge to ~armed-pi on bomb: only dunk sets
    # it, under the condition armed-pi, and nothing deletes it
    idle = {neg(f"armed-p{i}") for i in range(1, params[0] + 1)} \
        if family == "bomb" else set()
    for spec in (spec_ki(ctx, 1), spec_kmodels(ctx)):
        minted = {merge_action_name(m) for m in spec.merges}
        skipped = {merge_action_name(m) for m in spec.merges
                   if m.target in idle}
        assert len(skipped) == len(idle)
        for optimized in (True, False):
            K = ktm(problem, spec, ctx, optimized=optimized)
            assert K.merges == (minted - skipped if optimized else minted)
            assert {a.name for a in K.actions} - K.merges == source


def idle_merge_problem(broken: str):
    """One of x, y holds initially, and a makes ~x true under x.  The goal
    ~x is then a target whose merges rewrite (5) skips, unless
    ``broken`` names the one premise that fails: (a) a rule of b sets x;
    (b) a's rule also needs z; (c) a also sets w, which I gives under ~x,
    so ~x is mutex with ~w too."""
    init = [frozenset((pos("x"), pos("y"))), frozenset((neg("x"), neg("y")))]
    rules = [rule([pos("x")], neg("x"))]
    actions = []
    if broken == "a":
        actions.append(action("b", rules=[rule([], pos("x"))]))
    elif broken == "b":
        rules = [rule([pos("x"), pos("z")], neg("x"))]
    elif broken == "c":
        rules.append(rule([pos("x")], pos("w")))
        init.append(frozenset((pos("x"), pos("w"))))
    actions.append(action("a", rules=rules))
    return conformant_problem(["w", "x", "y", "z"], init, actions,
                              [neg("x")])


@pytest.mark.parametrize("broken", ["none", "a", "b", "c"])
def test_ktm_skips_only_the_idle_merges(broken):
    problem = idle_merge_problem(broken)
    ctx = build_context(problem)
    partners = {str(o) for o in ctx.mutexes.mutex_with(neg("x"))}
    assert partners == ({"x", "~w"} if broken == "c" else {"x"})
    for spec in (spec_ki(ctx, 1), spec_kmodels(ctx)):
        minted = {merge_action_name(m) for m in spec.merges}
        assert minted and all(m.target == neg("x") for m in spec.merges)
        K = ktm(problem, spec, ctx, optimized=True)
        assert K.merges == (set() if broken == "none" else minted)
        # the skipped merges change no optimal plan length
        lengths = {getattr(bfs_optimal(M, depth_cap=3), "stripped_length",
                           None) for M in (K, ktm(problem, spec, ctx))}
        assert len(lengths) == 1 and (broken == "b") == (None in lengths)
