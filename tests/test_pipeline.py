"""End-to-end ladder behavior and report structure."""

import time

import pytest

from kplan import (
    BudgetExhausted,
    NoPlanFound,
    PipelineConfig,
    pipeline_solve,
    pos,
)
from kplan import pipeline
from kplan.model import action, conformant_problem, rule
from kplan.planner import SolveResult, SolveStatus
from kplan import generators, pddl

from conftest import is_conformant


def strip_timings(value):
    if isinstance(value, dict):
        return {k: strip_timings(v) for k, v in value.items()
                if k != "seconds"}
    if isinstance(value, list):
        return [strip_timings(v) for v in value]
    return value


def load_generated(family, *params):
    return pddl.load(*generators.generate(family, params))


def test_pipeline_solves_and_validates():
    problem = load_generated("safe", 4)
    plan, report = pipeline_solve(problem)
    assert is_conformant(problem, plan.steps)
    assert report["verdict"]["valid"]
    assert report["plan"] and report["stripped_plan"] == list(plan.steps)
    stage = report["stages"][-1]
    assert stage["status"] == "solved"
    assert set(stage) == {"scheme", "copies", "optimized", "consistent",
                          "translation", "status", "expanded", "generated",
                          "evaluated", "seconds", "plan_length",
                          "stripped_length", "verdict"}
    # one hadd call per generated state, except the goal state
    assert stage["evaluated"] == stage["generated"] > 0
    assert set(stage["translation"]) == {"atoms", "actions",
                                         "conditional_effects",
                                         "merge_actions"}
    assert report["problem"]["fluents"] == len(problem.fluents)


def test_pipeline_no_plan_found():
    problem = conformant_problem(
        ["p", "g"], [[pos("p")]],
        [action("a", rules=[rule([], pos("p"))])], [pos("g")])
    with pytest.raises(NoPlanFound) as exc:
        pipeline_solve(problem)
    assert exc.value.trace  # the ladder trace survives the failure
    assert all(s["status"] == "unsolvable" for s in exc.value.trace)


def test_pipeline_budget_exhausted():
    problem = load_generated("safe", 8)
    with pytest.raises(BudgetExhausted) as exc:
        pipeline_solve(problem, PipelineConfig(max_nodes=2))
    assert any(s["status"] == "budget-out" for s in exc.value.trace)


def test_pipeline_report_is_deterministic():
    problem = load_generated("bomb", 3, 2)
    _, first = pipeline_solve(problem)
    _, second = pipeline_solve(problem)
    assert strip_timings(first) == strip_timings(second)


def test_pipeline_cap_error_ends_one_stage_not_the_ladder():
    # sortnet-3 is unsolvable at ki:1, and its kmodels spec needs more
    # than one model per literal
    problem = load_generated("sortnet", 3)
    with pytest.raises(NoPlanFound) as exc:
        pipeline_solve(problem, PipelineConfig(model_cap=1))
    bounded, kmodels = exc.value.trace
    assert bounded["scheme"] == "ki:1" and bounded["status"] == "unsolvable"
    assert kmodels["status"] == "cap-exceeded"
    assert kmodels["error"].startswith("TooManyModels: ")


def test_max_seconds_is_one_deadline_for_the_whole_ladder(monkeypatch):
    budgets = []

    def budget_eating_solve(K, max_nodes, max_seconds):
        budgets.append(max_seconds)
        time.sleep(max_seconds)
        return SolveResult(SolveStatus.BUDGET_OUT, None, 0, 1, 1,
                           max_seconds)

    monkeypatch.setattr(pipeline, "solve", budget_eating_solve)
    problem = load_generated("sgripper", 1)  # nondet: climbs 3 x 2 stages
    with pytest.raises(BudgetExhausted) as exc:
        pipeline_solve(problem, PipelineConfig(max_seconds=0.3, max_copies=3))
    assert len(exc.value.trace) == len(budgets) == 6
    assert all(b >= 0 for b in budgets)
    assert sum(budgets) <= 0.3
    assert budgets == sorted(budgets, reverse=True)
