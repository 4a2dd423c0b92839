"""`pipeline_solve` end to end against the belief-state oracle.

Random deterministic problems with literal goals, plain and with goals
that are rule heads, are each solved by the ladder and judged against
`belief_bfs` within DEPTH steps.
"""

from kplan import (
    NoPlanFound,
    WidthSearchCap,
    belief_bfs,
    conformant_check,
    pipeline_solve,
    width,
)

from conftest import random_suite

DEPTH = 6
SEEDS = (1, 2, 3, 4242)
PER_SEED = 150


def judge(problem):
    """The failed checks of one problem, and whether both the oracle and
    the ladder solved it."""
    oracle = belief_bfs(problem, depth_cap=DEPTH)
    try:
        plan, report = pipeline_solve(problem)
        stages = report["stages"]
    except NoPlanFound as exc:
        plan, stages = None, exc.trace
    failed = []
    if plan is not None:
        if not set(plan.steps) <= {a.name for a in problem.actions}:
            failed.append("names a step that is no source action")
        if not conformant_check(problem, plan.steps).valid:
            failed.append("the oracle rejects the plan")
        # a plan within DEPTH steps is one the oracle finds
        shortest = len(oracle.steps) if oracle is not None else DEPTH + 1
        if len(plan.steps) < shortest:
            failed.append("the plan is shorter than the oracle's")
    if oracle is not None:
        if plan is None:
            failed.append("the ladder misses a plan the oracle finds")
        try:
            narrow = width(problem) <= 1
        except WidthSearchCap:
            narrow = False
        if narrow and stages[0]["status"] != "solved":
            failed.append("ki:1 is not solved at width <= 1")
    return failed, oracle is not None and plan is not None


def test_pipeline_solve_agrees_with_the_oracle_on_random_suites():
    failures = []
    solved = 0
    for seed in SEEDS:
        for reachable_goal in (False, True):
            for i, problem in enumerate(random_suite(
                    seed, PER_SEED, reachable_goal=reachable_goal)):
                failed, both = judge(problem)
                solved += both
                failures += [(seed, reachable_goal, i, f) for f in failed]
    assert not failures, failures[:10]
    assert solved >= 550, solved
