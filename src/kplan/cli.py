"""Command-line interface: translate, solve, validate, width, gen, bench.

Each subcommand takes only the options its handler reads.  Every option
but gen's has a KPLAN_* environment-variable override (the flag wins
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
from .errors import KplanError, NoPlanFound, UnknownAction, UnsupportedFeature
from .model import ConformantProblem, Plan, sorted_lits
from .pi import DEFAULT_MODEL_CAP, DEFAULT_PI_CLAUSE_CAP, DEFAULT_STATE_CAP
from .pipeline import (PipelineConfig, encoding_size, pipeline_solve,
                       translation_summary)
from .translate import (
    cnf_goal_compile,
    ktm,
    simplify,
    spec_k0,
    spec_ki,
    spec_kmodels,
    spec_ks0,
)
from .verify import conformant_check, zero_approx_run


def _positive(text: str, what: str, kind=int):
    """``kind(text)`` if it is > 0, else a usage error."""
    try:
        if (value := kind(text)) > 0:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(
        f"{what} must be a positive number, not '{text}'")


def _parse_caps(text: Optional[str]) -> Tuple[int, int, int]:
    """states,models,pi-clauses triple."""
    if not text:
        return DEFAULT_STATE_CAP, DEFAULT_MODEL_CAP, DEFAULT_PI_CLAUSE_CAP
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            "--caps takes STATES,MODELS,PI_CLAUSES")
    return tuple(_positive(p, "a cap") for p in parts)  # type: ignore[return-value]


def _parse_budget(text: Optional[str]) -> Tuple[int, Optional[float]]:
    """nodes[,seconds] pair."""
    if not text:
        return PipelineConfig._field_defaults["max_nodes"], None
    parts = [p.strip() for p in text.split(",")]
    if len(parts) > 2:
        raise argparse.ArgumentTypeError("--budget takes NODES[,SECONDS]")
    nodes = _positive(parts[0], "the node budget")
    seconds = (_positive(parts[1], "the time budget", float)
               if len(parts) > 1 and parts[1] else None)
    return nodes, seconds


def _parse_copies(text: str) -> int:
    return _positive(text, "the copy count")


def _load_problem(args) -> ConformantProblem:
    domain_text = Path(args.domain).read_text()
    problem_text = Path(args.problem).read_text()
    return pddl.load(domain_text, problem_text)


def _deterministic_context(args):
    """The CNF-goal compilation of the input of translate or width, which
    take no oneof effects, and its context."""
    problem = _load_problem(args)
    if not problem.deterministic:
        raise UnsupportedFeature(
            f"{args.cmd} takes deterministic input; "
            "`kplan solve` compiles oneof effects")
    compiled = cnf_goal_compile(problem)
    return compiled, build_context(compiled, pi_cap=args.caps[2])


def _write_report(args, report: Dict):
    if getattr(args, "report", None):
        Path(args.report).write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n")


def _parse_scheme(text: str) -> Tuple[str, Optional[int]]:
    """(scheme, its width bound) for k0 | ki:N (N >= 0) | kmodels | ks0:
    k0 is complete up to width 0 like ki:0, ki:N up to N, and the bound
    of kmodels and ks0 is None.  N is given back without leading zeros,
    so ki:01 is ki:1."""
    if text == "k0":
        return text, 0
    if text in ("ks0", "kmodels"):
        return text, None
    bound = text[len("ki:"):] if text.startswith("ki:") else ""
    if not (bound.isascii() and bound.isdigit()):
        raise argparse.ArgumentTypeError(
            f"unknown scheme '{text}' (expected k0 | ki:N | kmodels | ks0)")
    return f"ki:{int(bound)}", int(bound)


def _scheme_spec(scheme: str, bound: Optional[int], ctx, caps,
                 widths: Dict):
    if scheme == "k0":
        return spec_k0()
    if bound is not None:
        return spec_ki(ctx, bound, widths=widths)
    if scheme == "ks0":
        return spec_ks0(ctx, cap=caps[0])
    return spec_kmodels(ctx, cap=caps[1])


def _width_report(problem: ConformantProblem, ctx,
                  found: Optional[Dict] = None) -> Dict:
    """Each target's width and least witness: as ``found`` holds them
    (the searches of ``spec_ki`` that its bound did not cut), else by an
    uncapped search."""
    per_literal = {}
    for L in target_literals(problem):
        if found and L in found:
            w, witness = found[L]
        else:
            w, witness = width_of_literal(ctx.ci, L, ctx.rel, ctx.pi)
        per_literal[str(L)] = {
            "width": w,
            "witness": [[str(l) for l in sorted_lits(c)] for c in witness],
        }
    overall = max((e["width"] for e in per_literal.values()), default=0)
    return {"width": overall, "literals": per_literal}


# --- subcommands --------------------------------------------------------------

def cmd_translate(args) -> int:
    compiled, ctx = _deterministic_context(args)
    scheme, bound = args.scheme
    # the spec (a ks0 tag per initial state) goes before simplify runs
    found: Dict = {}
    K = ktm(compiled, _scheme_spec(scheme, bound, ctx, args.caps, found),
            ctx, optimized=True)
    built = encoding_size(K)
    K = simplify(K)
    domain_text, problem_text = pddl.emit_classical(K)
    report = {
        "command": "translate",
        "scheme": scheme,
        "pi": {
            "clauses": len(ctx.pi.clauses),
            "nonunit_clauses": len(ctx.pi.nonunit_clauses),
            "unknown_fluents": len(ctx.pi.unknown_fluents()),
        },
        "translation": translation_summary(K),
        "built": built,
    }
    widths = report["widths"] = _width_report(compiled, ctx, found)
    if bound is not None and widths["width"] > bound:
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
    print(f"translated with {scheme}: {report['translation']['atoms']} "
          f"atoms, {report['translation']['actions']} actions, "
          f"{report['translation']['conditional_effects']} effects")
    _write_report(args, report)
    return 0


def _pipeline_config(args) -> PipelineConfig:
    nodes, seconds = args.budget
    state_cap, model_cap, pi_cap = args.caps
    return PipelineConfig(max_nodes=nodes, max_seconds=seconds,
                          max_copies=args.nondet_copies,
                          state_cap=state_cap, model_cap=model_cap,
                          pi_cap=pi_cap)


def cmd_solve(args) -> int:
    problem = _load_problem(args)
    try:
        plan, report = pipeline_solve(problem, _pipeline_config(args))
    except NoPlanFound as exc:
        print(f"failure: {exc}", file=sys.stderr)
        for stage in exc.trace:
            if "error" in stage:
                detail = f" ({stage['error']})"
            elif "verdict" in stage:  # the oracle rejected the stage's plan
                detail = f", plan rejected ({stage['verdict']['reason']})"
            else:
                detail = ""
            print(f"  stage {stage['scheme']} (copies={stage['copies']}): "
                  f"{stage['status']}{detail}", file=sys.stderr)
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
    stripped = Plan(steps).stripped()
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
    compiled, ctx = _deterministic_context(args)
    report = _width_report(compiled, ctx)
    report["command"] = "width"
    print(f"w(P) = {report['width']}")
    for lit, entry in sorted(report["literals"].items()):
        witness = " ".join("{" + ",".join(c) + "}" for c in entry["witness"])
        print(f"  w({lit}) = {entry['width']}"
              + (f"  witness: {witness}" if witness else ""))
    _write_report(args, report)
    return 0


def cmd_gen(args) -> int:
    try:
        domain_text, problem_text = generators.generate(args.family,
                                                        args.params)
    except ValueError as exc:
        args.usage_error(str(exc))  # exits 2
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
        except NoPlanFound as exc:
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
# Option defaults are read from KPLAN_* when the parser is built, as strings,
# so that argparse checks them with ``type`` like command-line values.

def _files(p: argparse.ArgumentParser):
    p.add_argument("domain", help="domain file")
    p.add_argument("problem", help="problem file")


def _plan(p: argparse.ArgumentParser):
    p.add_argument("plan", help="plan file (one action per line)")


def _option(flag: str, env: str, default: Optional[str], **kwargs):
    return lambda p: p.add_argument(
        flag, default=os.environ.get("KPLAN_" + env, default), **kwargs)


_caps = _option("--caps", "CAPS", "", type=_parse_caps,
                help="caps as STATES,MODELS,PI_CLAUSES "
                     f"(default {DEFAULT_STATE_CAP},{DEFAULT_MODEL_CAP},"
                     f"{DEFAULT_PI_CLAUSE_CAP})")
_budget = _option("--budget", "BUDGET", "", type=_parse_budget,
                  help="search budget as NODES[,SECONDS]")
_nondet_copies = _option(
    "--nondet-copies", "NONDET_COPIES",
    str(PipelineConfig._field_defaults["max_copies"]), type=_parse_copies,
    help="maximum action copies for nondeterministic input")
_export_pddl = _option("--export-pddl", "EXPORT_PDDL", None,
                       help="directory for emitted PDDL / plan files")
_report = _option("--report", "REPORT", None,
                  help="write a machine-readable JSON report here")
_scheme = _option("--scheme", "SCHEME", "ki:1", type=_parse_scheme,
                  help="k0 | ki:N | kmodels | ks0 (default ki:1)")


def _gen_arguments(p: argparse.ArgumentParser):
    p.add_argument("family", help="one of: "
                   + ", ".join(sorted(generators.GENERATORS)))
    p.add_argument("params", nargs="+", type=int, help="family parameters")
    p.add_argument("-o", "--output-dir", default=".",
                   help="directory for the generated files")
    # the family and its parameters are checked together, by the generator
    p.set_defaults(usage_error=p.error)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kplan",
        description="conformant-to-classical planning toolkit")
    sub = parser.add_subparsers(dest="cmd", required=True)
    # each subcommand takes the arguments its handler reads, and no others
    for name, func, help_text, arguments in (
            ("translate", cmd_translate, "translate to classical PDDL",
             (_files, _caps, _export_pddl, _report, _scheme)),
            ("solve", cmd_solve, "solve end to end",
             (_files, _caps, _budget, _nondet_copies, _export_pddl,
              _report)),
            ("validate", cmd_validate, "validate a plan file",
             (_files, _plan, _caps, _report)),
            ("width", cmd_width, "report conformant width",
             (_files, _caps, _report)),
            ("gen", cmd_gen, "generate a benchmark instance",
             (_gen_arguments,)),
            ("bench", cmd_bench, "run the built-in benchmark sweep",
             (_caps, _budget, _nondet_copies, _report))):
        p = sub.add_parser(name, help=help_text)
        for add in arguments:
            add(p)
        p.set_defaults(func=func)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (KplanError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        try:
            _write_report(args, {"command": args.cmd,
                                 "error": f"{type(exc).__name__}: {exc}"})
        except OSError as report_exc:
            print(f"error: no report written: {report_exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
