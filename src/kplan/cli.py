"""Command-line interface: translate, solve, validate, width, gen, bench.

Every flag has a KPLAN_* environment-variable override (the flag wins
when both are given).  Reports are line-oriented on stdout plus an
optional machine-readable JSON document via --report.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from . import generators, pddl
from .analysis import (
    build_context,
    target_literals,
    width_of_literal,
)
from .errors import BudgetExhausted, KplanError, NoPlanFound, UnknownAction, WidthSearchCap
from .model import ConformantProblem, neg, pos, sorted_lits
from .pi import DEFAULT_MODEL_CAP, DEFAULT_PI_CLAUSE_CAP
from .pipeline import PipelineConfig, pipeline_solve, translation_summary
from .translate import (
    DEFAULT_S0_CAP,
    MERGE_PREFIX,
    cnf_goal_compile,
    ktm,
    spec_k0,
    spec_ki,
    spec_kmodels,
    spec_ks0,
)
from .verify import DEFAULT_STATE_CAP, conformant_check, initial_states, zero_approx_run


def _env(name: str, default=None):
    return os.environ.get("KPLAN_" + name, default)


def _parse_caps(text: Optional[str]) -> Tuple[int, int, int]:
    """states,models,pi-clauses triple."""
    if not text:
        return DEFAULT_STATE_CAP, DEFAULT_MODEL_CAP, DEFAULT_PI_CLAUSE_CAP
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            "--caps takes STATES,MODELS,PI_CLAUSES")
    return tuple(int(p) for p in parts)  # type: ignore[return-value]


def _parse_budget(text: Optional[str]) -> Tuple[int, Optional[float]]:
    """nodes[,seconds] pair."""
    if not text:
        return 200_000, None
    parts = [p.strip() for p in text.split(",")]
    nodes = int(parts[0])
    seconds = float(parts[1]) if len(parts) > 1 and parts[1] else None
    return nodes, seconds


def _load_problem(args) -> ConformantProblem:
    domain_text = Path(args.domain).read_text()
    problem_text = Path(args.problem).read_text()
    return pddl.load(domain_text, problem_text)


def _write_report(args, report: Dict):
    if args.report:
        Path(args.report).write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n")


def _parse_scheme(text: str) -> str:
    """k0 | ki:N with N >= 0 | kmodels | ks0, checked at parse time."""
    if text in ("k0", "ks0", "kmodels"):
        return text
    bound = text[len("ki:"):] if text.startswith("ki:") else ""
    if not (bound.isascii() and bound.isdigit()):
        raise argparse.ArgumentTypeError(
            f"unknown scheme '{text}' (expected k0 | ki:N | kmodels | ks0)")
    return text


def _scheme_spec(scheme: str, ctx, caps, include_all: bool = False):
    states_cap, models_cap, _ = caps
    if scheme == "k0":
        return spec_k0()
    if scheme == "ks0":
        return spec_ks0(ctx, cap=states_cap, include_all=include_all)
    if scheme == "kmodels":
        return spec_kmodels(ctx, cap=models_cap, include_all=include_all)
    return spec_ki(ctx, int(scheme[len("ki:"):]), include_all=include_all)


def _width_report(problem: ConformantProblem, ctx) -> Dict:
    per_literal = {}
    overall = 0
    for L in target_literals(problem):
        try:
            w, witness = width_of_literal(ctx.ci, L, ctx.rel, ctx.pi)
            per_literal[str(L)] = {
                "width": w,
                "witness": [[str(l) for l in sorted_lits(c)]
                            for c in witness],
            }
            if overall is not None:
                overall = max(overall, w)
        except WidthSearchCap as exc:
            # an unknown width makes the overall width unknown
            per_literal[str(L)] = {"width": None, "error": str(exc)}
            overall = None
    return {"width": overall, "literals": per_literal}


# --- subcommands --------------------------------------------------------------

def cmd_translate(args) -> int:
    problem = _load_problem(args)
    compiled = cnf_goal_compile(problem)
    caps = args.caps
    ctx = build_context(compiled, pi_cap=caps[2],
                        strengthened_mutex=args.strengthened_mutex)
    spec = _scheme_spec(args.scheme, ctx, caps)
    K = ktm(compiled, spec, ctx, optimized=args.opt, validate=False)
    domain_text, problem_text = pddl.emit_classical(K)
    report = {
        "command": "translate",
        "scheme": args.scheme,
        "optimized": args.opt,
        "pi": {
            "clauses": len(ctx.pi.clauses),
            "nonunit_clauses": len(ctx.pi.nonunit_clauses),
            "unknown_fluents": len(ctx.pi.unknown_fluents()),
        },
        "translation": translation_summary(K),
    }
    widths = _width_report(compiled, ctx)
    report["widths"] = widths
    if args.scheme.startswith("ki:"):
        bound = int(args.scheme.split(":", 1)[1])
        if widths["width"] is None or widths["width"] > bound:
            report["warning"] = (
                f"problem width {widths['width']} exceeds the bound "
                f"{bound}; completeness is not guaranteed")
            print(f"warning: {report['warning']}")
    if args.export_pddl:
        out = Path(args.export_pddl)
        out.mkdir(parents=True, exist_ok=True)
        (out / "domain.pddl").write_text(domain_text)
        (out / "problem.pddl").write_text(problem_text)
        print(f"wrote {out / 'domain.pddl'} and {out / 'problem.pddl'}")
    else:
        sys.stdout.write(domain_text)
        sys.stdout.write(problem_text)
    print(f"translated with {args.scheme}: {report['translation']['atoms']} "
          f"atoms, {report['translation']['actions']} actions, "
          f"{report['translation']['conditional_effects']} effects")
    _write_report(args, report)
    return 0


def _pipeline_config(args) -> PipelineConfig:
    nodes, seconds = args.budget
    state_cap, model_cap, pi_cap = args.caps
    return PipelineConfig(max_nodes=nodes, max_seconds=seconds,
                          optimized=args.opt,
                          strengthened_mutex=args.strengthened_mutex,
                          max_copies=args.nondet_copies,
                          state_cap=state_cap, model_cap=model_cap,
                          pi_cap=pi_cap)


def cmd_solve(args) -> int:
    problem = _load_problem(args)
    try:
        plan, report = pipeline_solve(problem, _pipeline_config(args))
    except (NoPlanFound, BudgetExhausted) as exc:
        print(f"failure: {exc}", file=sys.stderr)
        for stage in exc.trace:
            error = f" ({stage['error']})" if "error" in stage else ""
            print(f"  stage {stage['scheme']} (copies={stage['copies']}): "
                  f"{stage['status']}{error}", file=sys.stderr)
        _write_report(args, {"command": "solve", "failure": str(exc),
                             "stages": exc.trace})
        return 1
    report["command"] = "solve"
    print(f"plan ({len(plan.steps)} steps, validated over "
          f"{report['verdict']['states_checked']} initial states):")
    for step in plan.steps:
        print(f"  ({step})")
    if args.export_pddl:
        out = Path(args.export_pddl)
        out.mkdir(parents=True, exist_ok=True)
        (out / "plan.txt").write_text(pddl.emit_plan_text(plan.steps))
    _write_report(args, report)
    return 0


def cmd_validate(args) -> int:
    problem = _load_problem(args)
    steps = pddl.parse_plan_text(Path(args.plan).read_text())
    stripped = tuple(s for s in steps if not s.startswith(MERGE_PREFIX))
    names = {a.name for a in problem.actions}
    unknown = [s for s in stripped if s not in names]
    if unknown:
        raise UnknownAction(f"plan references unknown actions: {unknown}")
    verdict = conformant_check(problem, stripped, cap=args.caps[0])
    weak = zero_approx_run(problem, stripped)
    if verdict.valid:
        print(f"conformant: yes ({verdict.states_checked} initial states)")
    else:
        state = sorted_lits(verdict.failing_state or frozenset())
        print("conformant: no")
        print(f"  reason: {verdict.reason}")
        print(f"  counterexample initial state: "
              f"{' '.join(str(l) for l in state)}")
    print(f"0-approximation: {'valid' if weak.valid else 'invalid'}"
          + (f" ({weak.reason})" if not weak.valid else ""))
    _write_report(args, {
        "command": "validate",
        "plan": list(steps),
        "stripped_plan": list(stripped),
        "conformant": {"valid": verdict.valid, "reason": verdict.reason,
                       "states_checked": verdict.states_checked},
        "zero_approximation": {"valid": weak.valid, "reason": weak.reason},
    })
    return 0 if verdict.valid else 1


def cmd_width(args) -> int:
    problem = _load_problem(args)
    compiled = cnf_goal_compile(problem)
    ctx = build_context(compiled, pi_cap=args.caps[2])
    report = _width_report(compiled, ctx)
    report["command"] = "width"
    print(f"w(P) = {report['width']}")
    for lit, entry in sorted(report["literals"].items()):
        if entry.get("width") is None:
            print(f"  w({lit}) : {entry['error']}")
        else:
            witness = " ".join(
                "{" + ",".join(c) + "}" for c in entry["witness"])
            print(f"  w({lit}) = {entry['width']}"
                  + (f"  witness: {witness}" if witness else ""))
    _write_report(args, report)
    return 0


def cmd_gen(args) -> int:
    domain_text, problem_text = generators.generate(args.family, args.params)
    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    stem = "-".join([args.family, *[str(p) for p in args.params]])
    dpath = out / f"{stem}-domain.pddl"
    ppath = out / f"{stem}-problem.pddl"
    dpath.write_text(domain_text)
    ppath.write_text(problem_text)
    print(f"wrote {dpath}")
    print(f"wrote {ppath}")
    return 0


DEFAULT_BENCH = (
    ("safe", (6,)),
    ("bomb", (4, 4)),
    ("ring", (3,)),
    ("square-center", (3,)),
    ("corners-square", (4,)),
    ("sortnet", (3,)),
    ("disjtoy", (4,)),
    ("sgripper", (1,)),
)


def cmd_bench(args) -> int:
    config = _pipeline_config(args)
    rows = []
    for family, params in DEFAULT_BENCH:
        name = "-".join([family, *[str(p) for p in params]])
        domain_text, problem_text = generators.generate(family, params)
        problem = pddl.load(domain_text, problem_text)
        start = time.monotonic()
        try:
            plan, report = pipeline_solve(problem, config)
            elapsed = time.monotonic() - start
            scheme = report["stages"][-1]["scheme"]
            rows.append((name, scheme, len(plan.steps), round(elapsed, 2)))
            print(f"{name:<20} {scheme:<8} length={len(plan.steps):<4} "
                  f"{elapsed:6.2f}s")
        except (NoPlanFound, BudgetExhausted) as exc:
            elapsed = time.monotonic() - start
            rows.append((name, "failed", None, round(elapsed, 2)))
            print(f"{name:<20} {'failed':<8} {'':<12} {elapsed:6.2f}s "
                  f"({exc})")
    _write_report(args, {
        "command": "bench",
        "rows": [{"instance": n, "scheme": s, "stripped_length": l,
                  "seconds": t} for n, s, l, t in rows],
    })
    return 0


# --- argument plumbing --------------------------------------------------------

def _add_common(p: argparse.ArgumentParser, with_problem: bool = True):
    if with_problem:
        p.add_argument("domain", help="domain file")
        p.add_argument("problem", help="problem file")
    opt = p.add_mutually_exclusive_group()
    opt.add_argument("--opt", dest="opt", action="store_true",
                     help="apply the rewrite optimizations (default)")
    opt.add_argument("--no-opt", dest="opt", action="store_false",
                     help="disable the rewrite optimizations")
    p.set_defaults(opt=_env("OPT", "1") not in ("0", "false", "no"))
    p.add_argument("--caps", type=_parse_caps,
                   default=_parse_caps(_env("CAPS")),
                   help="caps as STATES,MODELS,PI_CLAUSES "
                        f"(default {DEFAULT_STATE_CAP},{DEFAULT_MODEL_CAP},"
                        f"{DEFAULT_PI_CLAUSE_CAP})")
    p.add_argument("--budget", type=_parse_budget,
                   default=_parse_budget(_env("BUDGET")),
                   help="search budget as NODES[,SECONDS]")
    p.add_argument("--strengthened-mutex", action="store_true",
                   default=_env("STRENGTHENED_MUTEX", "0") not in
                   ("0", "false", "no"),
                   help="use the strengthened mutex propagation variant")
    p.add_argument("--nondet-copies", type=int,
                   default=int(_env("NONDET_COPIES", "3")),
                   help="maximum action copies for nondeterministic input")
    p.add_argument("--export-pddl", default=_env("EXPORT_PDDL"),
                   help="directory for emitted PDDL / plan files")
    p.add_argument("--report", default=_env("REPORT"),
                   help="write a machine-readable JSON report here")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kplan",
        description="conformant-to-classical planning toolkit")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("translate", help="translate to classical PDDL")
    _add_common(p)
    p.add_argument("--scheme", type=_parse_scheme,
                   default=_env("SCHEME", "ki:1"),
                   help="k0 | ki:N | kmodels | ks0 (default ki:1)")
    p.set_defaults(func=cmd_translate)

    p = sub.add_parser("solve", help="solve end to end")
    _add_common(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("validate", help="validate a plan file")
    _add_common(p)
    p.add_argument("plan", help="plan file (one action per line)")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("width", help="report conformant width")
    _add_common(p)
    p.set_defaults(func=cmd_width)

    p = sub.add_parser("gen", help="generate a benchmark instance")
    p.add_argument("family", help="one of: "
                   + ", ".join(sorted(generators.GENERATORS)))
    p.add_argument("params", nargs="+", type=int, help="family parameters")
    p.add_argument("-o", "--output-dir", default=".",
                   help="directory for the generated files")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("bench", help="run the built-in benchmark sweep")
    _add_common(p, with_problem=False)
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (KplanError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
