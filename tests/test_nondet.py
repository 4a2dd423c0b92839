"""The determinizing front-end: hidden selectors, copies, resets."""

import pytest

from kplan import (
    EMPTY_TAG,
    PipelineConfig,
    Rule,
    build_context,
    conformant_check,
    inject_reset_effects,
    ktm,
    nondet_compile,
    pipeline_solve,
    pos,
    neg,
    solve,
    spec_ki,
    spec_kmodels,
)
from kplan.analysis import all_literals, masked
from kplan.translate import atom_name
from kplan import generators, pddl

from conftest import coin_problem, compiled_instance


def test_nondet_compile_shape():
    compiled, resets = nondet_compile(coin_problem(), copies=2)
    assert compiled.deterministic
    names = {a.name for a in compiled.actions}
    assert {"flip-c1", "flip-c2", "reset-flip-c1", "reset-flip-c2",
            "look"} <= names
    assert set(resets) == {"reset-flip-c1", "reset-flip-c2"}
    hidden = resets["reset-flip-c1"]
    assert len(hidden) == 2 and all(h.startswith("h-flip-c1") for h in hidden)
    # each copy is gated by a consumed enabler
    c1 = compiled.action_by_name("flip-c1")
    assert pos("enabled-flip-c1") in c1.preconditions
    assert any(r.effect == neg("enabled-flip-c1") for r in c1.rules)
    # the hidden selectors are constrained by a oneof in I
    assert frozenset(pos(h) for h in hidden) in compiled.init


def test_nondet_compile_noop_on_deterministic_input(tiny):
    compiled, resets = nondet_compile(tiny, copies=3)
    assert compiled is tiny and resets == {}
    with pytest.raises(ValueError):
        nondet_compile(coin_problem(), copies=0)


def test_determinization_covers_every_outcome():
    compiled, _ = nondet_compile(coin_problem(), copies=1)
    verdict = conformant_check(compiled, ("flip-c1", "look"))
    assert verdict.valid
    # over all hidden assignments: both outcomes are exercised
    assert verdict.states_checked == 2
    bad = conformant_check(compiled, ("flip-c1",))
    assert not bad.valid


def test_reset_erases_assumption_knowledge_but_not_selector_facts():
    compiled, resets = nondet_compile(coin_problem(), copies=1)
    ctx = build_context(compiled)
    spec = spec_ki(ctx, 1, include_all=True)
    K = inject_reset_effects(ktm(compiled, spec, ctx, optimized=True),
                             ctx, spec, resets)
    reset = K.action_by_name("reset-flip-c1")
    hidden = set(resets["reset-flip-c1"])
    hidden_tags = [t for t in spec.tags
                   if any(l.fluent in hidden for l in t)]
    assert hidden_tags, "expected tags over the hidden selectors"
    erasing = [r for r in reset.rules if len(r.condition) == 1]
    assert erasing, "reset must copy unconditional into tagged knowledge"
    for r in reset.rules:
        # tag-internal selector knowledge must never be overwritten
        for t in hidden_tags:
            for h in hidden:
                assert r.effect.fluent != atom_name(pos(h), t)
                assert r.effect.fluent != atom_name(neg(h), t)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_resets_write_the_atoms_ktm_declares(n):
    # each reset writes every tagged atom that ktm declares for a tag over
    # its hidden selectors, by the name ktm gives it: KL/p for the
    # projection p of t onto L
    compiled, resets = compiled_instance("sgripper", (n,))
    ctx = build_context(compiled)
    units = ctx.pi.closure(EMPTY_TAG)
    for scheme, spec in (("ki:1", spec_ki(ctx, 1, include_all=True)),
                         ("kmodels", spec_kmodels(ctx, include_all=True))):
        K = ktm(compiled, spec, ctx, optimized=True)
        R = inject_reset_effects(K, ctx, spec, resets)
        for name, hidden in resets.items():
            added = (set(R.action_by_name(name).rules)
                     - set(K.action_by_name(name).rules))
            want = set()
            for t in spec.tags:
                if not any(l.fluent in hidden for l in t):
                    continue
                for L in all_literals(compiled.fluents):
                    p = (ctx.pi.closure(t) - units) & frozenset(
                        masked(ctx.rel.lits, ctx.rel.relevant[L]))
                    tagged = atom_name(L, p)
                    if L.fluent in hidden or not p or tagged not in K.fluents:
                        continue
                    want.add(Rule(frozenset([pos(atom_name(L))]), pos(tagged)))
                    want.add(Rule(frozenset([neg(atom_name(L))]), neg(tagged)))
            assert want and added == want, (n, scheme, name)
            assert {l.fluent for r in added
                    for l in r.condition | {r.effect}} <= K.fluents


def reset_overlaps(K, R, resets):
    """(reset, atom) for each atom that a reset action of R, which is K
    with the reset effects injected, writes both by a rule ``ktm`` built
    into K and by an injected rule."""
    found = set()
    for name in resets:
        own = set(K.action_by_name(name).rules)
        written = {r.effect.fluent for r in own}
        found |= {(name, r.effect.fluent)
                  for r in set(R.action_by_name(name).rules) - own
                  if r.effect.fluent in written}
    return found


@pytest.mark.parametrize("copies", [1, 2, 3])
@pytest.mark.parametrize("instance", ["coin", "sgripper-1", "sgripper-2",
                                      "sgripper-3"])
def test_no_reset_writes_an_atom_its_own_rules_write(instance, copies):
    # the encodings the pipeline searches: a reset that wrote one atom by
    # both kinds of rule could add complementary literals
    if instance == "coin":
        compiled, resets = nondet_compile(coin_problem(), copies)
    else:
        compiled, resets = compiled_instance(
            "sgripper", (int(instance.split("-")[1]),), copies)
    ctx = build_context(compiled)
    for scheme, spec in (("ki:1", spec_ki(ctx, 1, include_all=True)),
                         ("kmodels", spec_kmodels(ctx, include_all=True))):
        K = ktm(compiled, spec, ctx, optimized=True)
        R = inject_reset_effects(K, ctx, spec, resets)
        assert R != K, scheme
        assert not reset_overlaps(K, R, resets), scheme


def test_pipeline_solves_nondet_gripper_with_one_copy():
    domain_text, problem_text = generators.sgripper(1)
    problem = pddl.load(domain_text, problem_text)
    plan, report = pipeline_solve(problem, PipelineConfig(max_copies=2))
    assert report["nondet"]
    assert report["verdict"]["valid"]
    solved = [s for s in report["stages"] if s["status"] == "solved"]
    assert solved and solved[-1]["copies"] == 1
    # the plan reuses the single move-out copy via its reset action
    assert any(step.startswith("reset-move-out") for step in plan.steps) or \
        sum(1 for s in plan.steps if s.startswith("move-out")) <= 1
