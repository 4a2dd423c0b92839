"""End-to-end solving ladder.

Normalizes the initial clauses, translates with the bounded scheme first
and the model-based scheme on failure, wraps nondeterministic input with
the determinizing front-end at increasing copy counts, and only reports a
plan after the brute-force conformance oracle accepts it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .analysis import build_context
from .errors import BudgetExhausted, CapExceeded, NoPlanFound
from .model import ConformantProblem, Plan, neg, pos
from .pi import DEFAULT_MODEL_CAP, DEFAULT_PI_CLAUSE_CAP
from .planner import SolveStatus, solve
from .translate import (
    NondetInfo,
    cnf_goal_compile,
    inject_reset_effects,
    ktm,
    spec_ki,
    spec_kmodels,
)
from .verify import DEFAULT_STATE_CAP, conformant_check


@dataclass(frozen=True)
class PipelineConfig:
    max_nodes: int = 200_000
    max_seconds: Optional[float] = None  # one deadline for the whole ladder
    optimized: bool = True
    strengthened_mutex: bool = False
    max_copies: int = 3
    state_cap: int = DEFAULT_STATE_CAP
    model_cap: int = DEFAULT_MODEL_CAP
    pi_cap: int = DEFAULT_PI_CLAUSE_CAP


LADDER = ("ki:1", "kmodels")


def _problem_summary(problem: ConformantProblem) -> Dict:
    return {
        "fluents": len(problem.fluents),
        "actions": len(problem.actions),
        "init_clauses": len(problem.init),
        "goal_literals": len(problem.goal),
        "goal_clauses": len(problem.goal_clauses),
        "deterministic": problem.deterministic,
    }


def translation_summary(K) -> Dict:
    return {
        "atoms": len(K.fluents),
        "actions": len(K.actions),
        "conditional_effects": sum(len(a.rules) for a in K.actions),
        "merge_actions": len(K.merges),
    }


def _cap_exceeded(stage: Dict, exc: CapExceeded):
    stage["status"] = "cap-exceeded"
    stage["error"] = f"{type(exc).__name__}: {exc}"


def pipeline_solve(problem: ConformantProblem,
                   config: Optional[PipelineConfig] = None
                   ) -> Tuple[Plan, Dict]:
    """Solve a conformant problem end to end.

    Returns the merge-stripped plan and a machine-readable report (stage
    ladder, translation sizes, verdicts).  A stage that hits a cap is
    recorded with status "cap-exceeded" and the error, and the ladder goes
    on.  ``config.max_seconds`` bounds the searches of the whole ladder:
    each stage searches for at most the time left.  Raises NoPlanFound
    when every stage conclusively fails, BudgetExhausted when some stage
    ran out of search budget; both carry the stage trace.
    """
    config = config or PipelineConfig()
    deadline = (None if config.max_seconds is None
                else time.monotonic() + config.max_seconds)
    report: Dict = {
        "problem": _problem_summary(problem),
        "stages": [],
    }
    base = cnf_goal_compile(problem)
    report["goal_compiled"] = base is not problem
    nondet = not base.deterministic
    report["nondet"] = nondet

    copy_counts = list(range(1, config.max_copies + 1)) if nondet else [0]
    saw_budget_out = False
    for copies in copy_counts:
        if nondet:
            from .translate import nondet_compile
            compiled, info = nondet_compile(base, copies)
        else:
            compiled, info = base, None
        try:
            ctx = build_context(compiled, pi_cap=config.pi_cap,
                                strengthened_mutex=config.strengthened_mutex)
        except CapExceeded as exc:
            ctx, context_error = None, exc
        else:
            consistent = all(ctx.mutexes.mutex(pos(f), neg(f))
                             for f in compiled.fluents)
        include_all = nondet
        for scheme in LADDER:
            stage: Dict = {
                "scheme": scheme,
                "copies": copies,
                "optimized": config.optimized,
            }
            report["stages"].append(stage)
            if ctx is None:
                _cap_exceeded(stage, context_error)
                continue
            stage["consistent"] = consistent
            try:
                if scheme == "ki:1":
                    spec = spec_ki(ctx, 1, include_all=include_all)
                else:
                    spec = spec_kmodels(ctx, cap=config.model_cap,
                                        include_all=include_all)
            except CapExceeded as exc:
                _cap_exceeded(stage, exc)
                continue
            K = ktm(compiled, spec, ctx, optimized=config.optimized,
                    validate=False)
            if info is not None:
                K = inject_reset_effects(K, compiled, spec, info)
            max_seconds = (None if deadline is None
                           else max(0.0, deadline - time.monotonic()))
            result = solve(K, max_nodes=config.max_nodes,
                           max_seconds=max_seconds)
            stage.update({
                "translation": translation_summary(K),
                "status": result.status.value,
                "expanded": result.expanded,
                "generated": result.generated,
                "evaluated": result.evaluated,
                "seconds": round(result.seconds, 3),
            })
            if result.status is SolveStatus.BUDGET_OUT:
                saw_budget_out = True
                continue
            if result.status is SolveStatus.UNSOLVABLE:
                continue
            plan = result.plan
            stripped = plan.stripped()
            stage["plan_length"] = len(plan)
            stage["stripped_length"] = len(stripped)
            try:
                verdict = conformant_check(compiled, stripped,
                                           cap=config.state_cap)
            except CapExceeded as exc:
                _cap_exceeded(stage, exc)
                continue
            stage["verdict"] = {
                "valid": verdict.valid,
                "reason": verdict.reason,
                "states_checked": verdict.states_checked,
            }
            if not verdict.valid:
                # should not happen for the built-in schemes; keep
                # climbing the ladder rather than reporting a bad plan
                continue
            report["plan"] = list(plan.steps)
            report["stripped_plan"] = list(stripped)
            report["verdict"] = stage["verdict"]
            return Plan(stripped), report
    trace = list(report["stages"])
    if saw_budget_out:
        raise BudgetExhausted("search budget exhausted on every stage",
                              trace=trace)
    raise NoPlanFound("no stage of the ladder produced a valid plan",
                      trace=trace)
