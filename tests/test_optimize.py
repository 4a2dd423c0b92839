"""The rewrite optimizations must keep translations sound and no weaker."""

from kplan import (
    build_context,
    bfs_optimal,
    ktm,
    neg,
    pos,
    spec_ki,
    spec_kmodels,
)
from kplan.translate import atom_name

from conftest import build_pickdrop, is_conformant, random_suite


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
