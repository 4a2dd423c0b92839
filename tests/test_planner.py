"""Embedded classical planner: search outcomes, heuristic, optimal oracle."""

import heapq
from collections import deque

import pytest

from kplan import (
    InconsistentResult,
    SolveStatus,
    bfs_optimal,
    build_context,
    ktm,
    neg,
    pos,
    solve,
    spec_k0,
    spec_ki,
)
from kplan import planner
from kplan.model import (
    Action,
    ClassicalProblem,
    Plan,
    RunResult,
    action,
    rule,
    run_plan,
)
from kplan.planner import INF, Grounded
from kplan.translate import inject_reset_effects

from conftest import (
    TINY_PLAN,
    build_pickdrop,
    build_tiny,
    compiled_instance,
    random_suite,
    reference_bfs_optimal,
    reference_grounded,
    reference_solve,
)


def chain_problem(n: int) -> ClassicalProblem:
    """p0 -> p1 -> ... -> pn via step actions; only one path to the goal."""
    fluents = frozenset(f"p{i}" for i in range(n + 1))
    actions = tuple(
        action(f"step{i}", preconditions=[pos(f"p{i}")],
               rules=[rule([], pos(f"p{i+1}")), rule([], neg(f"p{i}"))])
        for i in range(n))
    return ClassicalProblem(fluents, frozenset([pos("p0")]), actions,
                            frozenset([pos(f"p{n}")]))


def test_solve_finds_chain():
    result = solve(chain_problem(5))
    assert result.status is SolveStatus.SOLVED
    assert result.plan.steps == tuple(f"step{i}" for i in range(5))
    check = run_plan(chain_problem(5), result.plan)
    assert check.achieved_goal


def test_solve_trivial_goal():
    K = ClassicalProblem(frozenset(["p"]), frozenset([pos("p")]), (),
                         frozenset([pos("p")]))
    result = solve(K)
    assert result.status is SolveStatus.SOLVED
    assert result.plan.steps == ()


def test_solve_detects_unsolvable_by_relaxation():
    # goal atom never appears as an effect: h(init) is infinite
    K = ClassicalProblem(frozenset(["p", "g"]), frozenset([pos("p")]),
                         (action("a", rules=[rule([], neg("p"))]),),
                         frozenset([pos("g")]))
    result = solve(K)
    assert result.status is SolveStatus.UNSOLVABLE
    assert result.plan is None


def test_solve_detects_unsolvable_by_exhaustion(tiny):
    # Kp and Knot-p are each relaxed-reachable, but never jointly true in
    # the real space: the heuristic stays finite and the open list must
    # empty out before the search can conclude unsolvability
    K = ktm(tiny, spec_k0())
    unreachable = ClassicalProblem(K.fluents, K.init, K.actions,
                                   frozenset([pos("Kp"), pos("Knot-p")]))
    result = solve(unreachable)
    assert result.status is SolveStatus.UNSOLVABLE
    assert result.expanded > 0


def test_solve_budget_out():
    result = solve(chain_problem(30), max_nodes=3)
    assert result.status is SolveStatus.BUDGET_OUT
    assert result.expanded <= 3


def test_solve_on_translated_problem(tiny):
    ctx = build_context(tiny)
    K = ktm(tiny, spec_ki(ctx, 1), ctx)
    result = solve(K)
    assert result.status is SolveStatus.SOLVED
    assert run_plan(K, result.plan).achieved_goal


def test_bfs_optimal_matches_known_optimum(tiny):
    K = ktm(tiny, spec_k0())
    plan = bfs_optimal(K, depth_cap=5)
    assert plan is not None
    assert plan.stripped() == TINY_PLAN  # unique shortest


def test_bfs_optimal_counts_merges_as_free(pickdrop):
    problem, spec, _, _ = pickdrop
    from kplan import ktm
    K = ktm(problem, spec)
    plan = bfs_optimal(K, depth_cap=4)
    assert plan is not None
    assert plan.stripped_length == 4
    assert len(plan.steps) > len(plan.stripped())  # some merge was used
    assert run_plan(K, plan).achieved_goal


def test_bfs_optimal_depth_cap():
    assert bfs_optimal(chain_problem(6), depth_cap=5) is None
    plan = bfs_optimal(chain_problem(6), depth_cap=6)
    assert plan is not None and len(plan.steps) == 6


def test_bfs_optimal_state_cap():
    assert bfs_optimal(chain_problem(8), depth_cap=8, max_states=2) is None


def test_apply_raises_typed_error_on_complementary_effects():
    K = ClassicalProblem(frozenset(["p", "q", "g"]), frozenset([pos("q")]),
                         (action("a", rules=[rule([pos("q")], pos("p")),
                                             rule([], neg("p"))]),),
                         frozenset([pos("g")]))
    g = Grounded(K)
    with pytest.raises(InconsistentResult, match=r"complementary.*\['p'\]"):
        g.apply(g.init, 0)


def test_solve_raises_typed_error_when_its_plan_fails(monkeypatch):
    def failing_run(K, plan):
        return RunResult(True, K.initial_state(), False)

    monkeypatch.setattr(planner, "run_plan", failing_run)
    with pytest.raises(InconsistentResult, match="internal plan check"):
        solve(chain_problem(3))


# --- hadd against its per-call construction -----------------------------------

def reference_hadd(g: Grounded, state) -> float:
    """hadd with the rule counters, partial costs and unconditional rules
    rebuilt on every call."""
    cost = [INF] * (2 * len(g.atoms))
    counter = [len(set(p)) for p, _, _ in g.relaxed]
    partial = [float(c) for _, _, c in g.relaxed]
    heap = []
    for i in range(len(g.atoms)):
        p = 2 * i if state >> i & 1 else 2 * i + 1
        cost[p] = 0.0
        heap.append((0.0, p))
    heapq.heapify(heap)

    def relax(eff, value):
        if value < cost[eff]:
            cost[eff] = value
            heapq.heappush(heap, (value, eff))

    for ridx, cnt in enumerate(counter):
        if cnt == 0:
            relax(g.relaxed[ridx][1], partial[ridx])
    while heap:
        c, p = heapq.heappop(heap)
        if c > cost[p]:
            continue
        for ridx in g.rules_by_prop.get(p, ()):
            partial[ridx] += c
            counter[ridx] -= 1
            if counter[ridx] == 0:
                relax(g.relaxed[ridx][1], partial[ridx])
    return sum(cost[gp] for gp in g.goal_props)


def first_stage_problem(family, params):
    """The classical problem of the pipeline's first ladder stage (ki:1,
    optimized, one oneof copy)."""
    compiled, info = compiled_instance(family, params)
    ctx = build_context(compiled)
    spec = spec_ki(ctx, 1, include_all=bool(info.resets))
    K = ktm(compiled, spec, ctx, optimized=True, validate=False)
    return inject_reset_effects(K, compiled, spec, info)


def assert_hadd_matches_reference(K, max_states=150):
    g = Grounded(K)
    seen = {g.init}
    queue = deque([g.init])
    while queue:
        state = queue.popleft()
        assert g.hadd(state) == reference_hadd(g, state)
        for idx in g.applicable(state):
            succ = g.apply(state, idx)
            if succ not in seen and len(seen) < max_states:
                seen.add(succ)
                queue.append(succ)


def test_hadd_matches_reference_on_random_suite():
    for problem in random_suite(404, 20):
        ctx = build_context(problem)
        assert_hadd_matches_reference(ktm(problem, spec_ki(ctx, 1), ctx))


@pytest.mark.parametrize("family,params", [
    ("sgripper", (3,)), ("bomb", (10, 10)), ("safe", (25,))])
def test_hadd_matches_reference_on_generated(family, params):
    assert_hadd_matches_reference(first_stage_problem(family, params))


# --- the bitset planner against the frozenset reference ----------------------

# The first-stage problems of the benchmark's solve workload
# (perfbench/workloads.py).
SOLVE_BENCH_INSTANCES = [
    ("bomb", (10, 10)), ("bomb", (12, 4)), ("safe", (25,)),
    ("square-center", (6,)), ("corners-square", (8,)), ("ring", (4,)),
    ("sgripper", (3,))]


def as_mask(atom_ids) -> int:
    return sum(1 << i for i in atom_ids)


def assert_planner_matches_reference(K):
    """Equal search outcome, counters and plan; and on every state the
    reference search evaluates, equal hadd value and equal successor (and
    goal test on it) per applicable action."""
    visited = []
    want = reference_solve(K, evaluated_states=visited)
    got = solve(K)
    assert (got.status, got.expanded, got.generated, got.evaluated) == (
        want.status, want.expanded, want.generated, want.evaluated)
    assert got.plan == want.plan
    assert len(visited) == want.evaluated
    g, ref = Grounded(K), reference_grounded(K)
    assert g.atoms == ref.atoms and g.init == as_mask(ref.init)
    for state in visited:
        mask = as_mask(state)
        assert g.hadd(mask) == ref.hadd(state)
        successors = {idx: ref.apply(state, idx)
                      for idx in ref.applicable(state)}
        assert {idx: g.apply(mask, idx) for idx in g.applicable(mask)} == {
            idx: as_mask(succ) for idx, succ in successors.items()}
        assert [g.is_goal(as_mask(succ)) for succ in successors.values()] \
            == [ref.is_goal(succ) for succ in successors.values()]


def test_planner_matches_reference_on_random_suite():
    for problem in random_suite(405, 30):
        ctx = build_context(problem)
        for K in (ktm(problem, spec_k0(), ctx),
                  ktm(problem, spec_ki(ctx, 1), ctx)):
            assert_planner_matches_reference(K)
            assert bfs_optimal(K, depth_cap=6) == reference_bfs_optimal(
                K, depth_cap=6)


@pytest.mark.parametrize("family,params", SOLVE_BENCH_INSTANCES)
def test_planner_matches_reference_on_solve_benchmark(family, params):
    assert_planner_matches_reference(first_stage_problem(family, params))


@pytest.mark.parametrize("family,params,depth_cap", [
    ("safe", (3,), 3), ("bomb", (3, 2), 4), ("sgripper", (1,), 5),
    ("ring", (3,), 8), ("square-center", (3,), 6)])
def test_bfs_optimal_matches_reference_on_generated(family, params,
                                                    depth_cap):
    K = first_stage_problem(family, params)
    plan = bfs_optimal(K, depth_cap=depth_cap, max_states=50_000)
    assert plan is not None
    assert plan == reference_bfs_optimal(K, depth_cap=depth_cap,
                                         max_states=50_000)
