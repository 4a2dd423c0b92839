"""Command-line interface smoke and determinism tests."""

import argparse
import ast
import gc
import importlib
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import kplan

from kplan import cli
from kplan.cli import main
from kplan.errors import GroundingBlowup, NoPlanFound


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def gen_instance(tmp_path, family, *params):
    code = main(["gen", family, *[str(p) for p in params],
                 "-o", str(tmp_path)])
    assert code == 0
    stem = "-".join([family, *[str(p) for p in params]])
    return (tmp_path / f"{stem}-domain.pddl",
            tmp_path / f"{stem}-problem.pddl")


def strip_timings(report):
    if isinstance(report, dict):
        return {k: strip_timings(v) for k, v in report.items()
                if k != "seconds"}
    if isinstance(report, list):
        return [strip_timings(v) for v in report]
    return report


def test_gen_writes_files(tmp_path, capsys):
    dom, prob = gen_instance(tmp_path, "safe", 4)
    assert dom.exists() and prob.exists()
    assert "oneof" in prob.read_text()


@pytest.mark.parametrize("family,params,message", [
    ("bogus", ["1"], "unknown family 'bogus'"),
    ("bomb", ["3"], "bomb takes 2 parameter(s) (x, y), not 1"),
    ("safe", ["0"], "safe needs n >= 2"),
    ("bomb", ["1", "1"], "bomb needs x >= 2 packages and y >= 1 toilets"),
    ("ring", ["2"], "ring needs n >= 3 rooms"),
    ("square-center", ["2"], "grid families need n >= 3"),
    ("corners-square", ["2"], "grid families need n >= 3"),
    ("sortnet", ["1"], "sortnet needs n >= 2 inputs"),
    ("disjtoy", ["1"], "disjtoy needs n >= 2 disjuncts"),
    ("sgripper", ["0"], "sgripper needs n >= 1 balls")])
def test_gen_rejects_bad_input_as_a_usage_error(tmp_path, capsys, family,
                                                params, message):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["gen", family, *params, "-o", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: kplan gen") and message in err
    assert "Traceback" not in err
    assert not out.exists()


def test_translate_reports_width_and_sizes(tmp_path, capsys):
    dom, prob = gen_instance(tmp_path, "safe", 4)
    report_path = tmp_path / "report.json"
    code, out, err = run_cli(capsys, "translate", str(dom), str(prob),
                             "--scheme", "ki:1",
                             "--report", str(report_path))
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["widths"]["width"] == 1
    assert report["translation"]["atoms"] > 0
    assert "warning" not in report


def test_translate_warns_when_width_exceeds_bound(tmp_path, capsys):
    dom, prob = gen_instance(tmp_path, "sortnet", 3)
    report_path = tmp_path / "report.json"
    code, out, err = run_cli(capsys, "translate", str(dom), str(prob),
                             "--scheme", "ki:1",
                             "--report", str(report_path))
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["widths"]["width"] == 3
    assert "completeness is not guaranteed" in report["warning"]
    assert "warning" in out


def test_k0_warns_like_ki_0(tmp_path, capsys):
    # k0 and ki:0 build the same spec, complete up to width 0
    dom, prob = gen_instance(tmp_path, "safe", 4)
    warnings = []
    for scheme in ("k0", "ki:0"):
        report_path = tmp_path / f"{scheme}.json"
        code, out, err = run_cli(capsys, "translate", str(dom), str(prob),
                                 "--scheme", scheme,
                                 "--report", str(report_path))
        assert code == 0
        warning = json.loads(report_path.read_text())["warning"]
        assert f"warning: {warning}\n" in out
        warnings.append(warning)
    assert warnings[0] == warnings[1] == (
        "problem width 1 exceeds the bound 0; completeness is not "
        "guaranteed")


def test_translate_export_is_deterministic(tmp_path, capsys):
    dom, prob = gen_instance(tmp_path, "bomb", 3, 2)
    outs = []
    for sub in ("one", "two"):
        export = tmp_path / sub
        report_path = tmp_path / f"{sub}.json"
        code, _, _ = run_cli(capsys, "translate", str(dom), str(prob),
                             "--export-pddl", str(export),
                             "--report", str(report_path))
        assert code == 0
        outs.append(((export / "domain.pddl").read_text(),
                     (export / "problem.pddl").read_text(),
                     strip_timings(json.loads(report_path.read_text()))))
    assert outs[0] == outs[1]


def translate_bomb_16_16(tmp_path, capsys):
    """The exported texts and the report of translating bomb-16-16 with
    ki:1, and the source problem."""
    dom, prob = gen_instance(tmp_path, "bomb", 16, 16)
    export = tmp_path / "out"
    report_path = tmp_path / "report.json"
    code, _, _ = run_cli(capsys, "translate", str(dom), str(prob),
                         "--scheme", "ki:1",
                         "--export-pddl", str(export),
                         "--report", str(report_path))
    assert code == 0
    texts = ((export / "domain.pddl").read_text(),
             (export / "problem.pddl").read_text())
    problem = kplan.pddl.load(dom.read_text(), prob.read_text())
    return texts, json.loads(report_path.read_text()), problem


def test_translate_drops_the_atoms_nothing_reads(tmp_path, capsys):
    texts, report, _ = translate_bomb_16_16(tmp_path, capsys)
    sizes = report["translation"]
    assert (sizes["atoms"], sizes["conditional_effects"]) == (32, 528)
    emitted = kplan.pddl.load_classical(*texts)
    assert len(emitted.fluents) == 32
    assert sum(len(a.rules) for a in emitted.actions) == 528
    # what ktm built, before the simplification: no support rule that
    # reads an atom Kc/p that starts false and that no rule makes true,
    # and no merge to Knot-armed-p, which nothing deletes
    assert report["built"] == {"atoms": 48, "conditional_effects": 800}


@pytest.mark.parametrize("family,n,scheme,built", [
    ("square-center", 8, "ks0", (288, 1028)),
    ("disjtoy", 9, "ks0", (513, 2314)),
    ("disjtoy", 9, "kmodels", (513, 2314))])
def test_translate_builds_one_atom_per_projection(tmp_path, capsys, family, n,
                                                  scheme, built):
    # ks0 tags every initial state; KL/t is built once per projection of
    # t onto the literals relevant to L, not once per state
    dom, prob = gen_instance(tmp_path, family, n)
    report_path = tmp_path / "report.json"
    code, _, _ = run_cli(capsys, "translate", str(dom), str(prob),
                         "--scheme", scheme, "--report", str(report_path))
    assert code == 0
    report = json.loads(report_path.read_text())
    assert (report["built"]["atoms"],
            report["built"]["conditional_effects"]) == built


SPEC_BUILDERS = {"ki:1": lambda ctx: kplan.spec_ki(ctx, 1),
                 "kmodels": kplan.spec_kmodels, "ks0": kplan.spec_ks0}


@pytest.mark.parametrize("family,sizes,scheme,bound_mb", [
    ("disjtoy", "9", "ks0", 1.23), ("disjtoy", "9", "kmodels", 1.23),
    ("bomb", "16-16", "ki:1", 0.98), ("square-center", "8", "ks0", 0.89),
    ("sortnet", "7", "ki:1", 0.85), ("safe", "40", "ki:1", 1.04)])
def test_translate_peak_memory(tmp_path, capsys, family, sizes, scheme,
                               bound_mb):
    """The peak of the Python allocations of a warm `kplan translate`, by
    tracemalloc: the same on every run of one CPython, with no timing in
    it.  Equal conditions and literals are shared, and the prime-implicate
    layer keeps no closure and no width, so sortnet-7 ki:1 peaks near
    0.78 MB and safe-40 ki:1 near 0.95 MB (0.85 and 1.03 MB with a
    closure cache and a width memo, 3.1 MB on sortnet-7 with every
    closure of its width search kept).  disjtoy-9 ks0 and kmodels peak
    near 1.12 MB, in ``ktm``, bomb-16-16 ki:1 near 0.89 MB (0.95 MB with
    the caches) and square-center-8 ks0 near 0.80 MB, in ``simplify``:
    1.40, 1.30 and 1.02 MB when ``simplify`` held literal sets, a tuple
    per setter and frozenset signatures; 1.75 and 1.60 MB on disjtoy-9
    and bomb-16-16 when ``ktm`` keyed its per-tag state by projection
    frozensets and the grounder built a literal per mention; 3.2 MB on
    disjtoy-9 when ``ktm`` built the rules of its static literals, kept
    a set per tag and a closure per tag, and ``simplify`` held its
    counters to the end (5.3 MB with copies per rule)."""
    if tracemalloc.is_tracing():
        pytest.skip("tracemalloc is already tracing this process")
    dom, prob = gen_instance(tmp_path, family, *sizes.split("-"))
    argv = ["translate", str(dom), str(prob), "--scheme", scheme]
    assert main(argv) == 0  # what a first run allocates once
    capsys.readouterr()
    gc.collect()
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert peak < bound_mb * 1e6


def optimized_sizes(family, *params, scheme="ki:1"):
    """(atoms, effects) of the encoding that `kplan translate` emits with
    the scheme ki:1, kmodels or ks0."""
    problem = kplan.cnf_goal_compile(
        kplan.pddl.load(*kplan.generators.generate(family, params)))
    ctx = kplan.build_context(problem)
    spec = SPEC_BUILDERS[scheme](ctx)
    K = kplan.simplify(kplan.ktm(problem, spec, ctx, optimized=True))
    return len(K.fluents), sum(len(a.rules) for a in K.actions)


@pytest.mark.parametrize("n", [3, 25, 40])
def test_pruned_safe_keeps_one_atom_and_one_effect_per_combination(n):
    assert optimized_sizes("safe", n) == (n + 1, n + 1)


@pytest.mark.parametrize("n", [10, 16, 20])
def test_pruned_bomb_size_is_exact(n):
    # Knot-armed-p and Knot-clogged-t stay: each of the n * n dunks sets
    # both unconditionally and each of the n flushes one.  The merges go
    # with their tagged atoms, as a merge fires only after a dunk of its
    # package, which already set its head Knot-armed-p.
    assert optimized_sizes("bomb", n, n) == (2 * n, 2 * n * n + n)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_pruned_ring_size_is_exact(n):
    assert optimized_sizes("ring", n) == (4 * n, 7 * n)


@pytest.mark.parametrize("n", [4, 6, 8, 10])
def test_pruned_square_center_ks0_size_is_exact(n):
    # KL/t depends only on the values t gives the fluents relevant to L.
    # Each of the four moves keeps rewrite (3)'s rule true -> Knot-c for
    # the row or column c at its far end, as down's true -> Knot-y4 on
    # n = 4, and not the rule Kc -> Knot-c beside it.
    assert optimized_sizes("square-center", n, scheme="ks0") == \
        (2 * n * n + 4 * n, 8 * n * n + 10 * n - 16)


@pytest.mark.parametrize("scheme", sorted(SPEC_BUILDERS))
@pytest.mark.parametrize("n", [4, 6, 9])
def test_pruned_disjtoy_keeps_the_size_of_ki1(n, scheme):
    # width 1: Ktrg at a tag with one disjunct implies Ktrg at every tag
    # with that disjunct, as go-i sets both and nothing deletes either, so
    # the merge keeps one condition per disjunct
    assert optimized_sizes("disjtoy", n, scheme=scheme) == (n + 1, n + 1)


@pytest.mark.parametrize("n", [3, 4, 5, 7])
def test_translate_keeps_only_the_unreachable_goal_of_sortnet(tmp_path, capsys,
                                                              n):
    # under ki:1 the compiled goal atoms are relaxed-unreachable; they
    # fall into one class, which no rule sets, and nothing else is read
    dom, prob = gen_instance(tmp_path, "sortnet", n)
    report_path = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "translate", str(dom), str(prob),
                           "--scheme", "ki:1", "--report", str(report_path))
    assert code == 0
    report = json.loads(report_path.read_text())
    sizes = report["translation"]
    assert (sizes["atoms"], sizes["conditional_effects"],
            sizes["actions"]) == (1, 0, 0)
    assert f"warning: {report['warning']}\n" in out
    assert "completeness is not guaranteed" in report["warning"]


# the instances of the benchmark's solve workload
SOLVE_LADDER = (("bomb", (10, 10)), ("bomb", (12, 4)), ("safe", (25,)),
                ("square-center", (6,)), ("corners-square", (8,)),
                ("ring", (4,)), ("sgripper", (3,)))


def test_solve_ladder_encoding_sizes():
    """The encodings the solve ladder searches on these instances, summed
    over every stage: a change that grows them fails here."""
    atoms = effects = 0
    for family, params in SOLVE_LADDER:
        problem = kplan.pddl.load(*kplan.generators.generate(family, params))
        _, report = kplan.pipeline_solve(problem)
        for stage in report["stages"]:
            atoms += stage["translation"]["atoms"]
            effects += stage["translation"]["conditional_effects"]
            assert stage["built"]["atoms"] >= stage["translation"]["atoms"]
    assert (atoms, effects) == (306, 1201)


# the ops of the benchmark's translate workload
TRANSLATE_OPS = (("bomb", (16, 16), "ki:1"), ("safe", (40,), "ki:1"),
                 ("disjtoy", (9,), "ks0"), ("square-center", (8,), "ks0"),
                 ("disjtoy", (9,), "kmodels"), ("sortnet", (7,), "ki:1"))


def test_translate_workload_encoding_sizes(tmp_path, capsys):
    """The encodings `kplan translate` emits on these ops, summed: a
    change that grows them fails here."""
    atoms = effects = 0
    for family, params, scheme in TRANSLATE_OPS:
        dom, prob = gen_instance(tmp_path, family, *params)
        export = tmp_path / "out"
        assert main(["translate", str(dom), str(prob), "--scheme", scheme,
                     "--export-pddl", str(export)]) == 0
        emitted = kplan.pddl.load_classical(
            (export / "domain.pddl").read_text(),
            (export / "problem.pddl").read_text())
        atoms += len(emitted.fluents)
        effects += sum(len(a.rules) for a in emitted.actions)
    capsys.readouterr()
    assert (atoms, effects) == (254, 1165)


def test_translate_workload_built_sizes(tmp_path, capsys):
    """What `ktm` builds on these ops before `simplify`, summed: a change
    that builds more fails here.  Folding the static literals took it
    from 1976/15887 to 1802/9679, the literals that no rule makes true
    to 1744/8177, and the idle merges of ktm's rewrite (5) to
    1696/7649."""
    atoms = effects = 0
    for family, params, scheme in TRANSLATE_OPS:
        dom, prob = gen_instance(tmp_path, family, *params)
        report_path = tmp_path / "report.json"
        assert main(["translate", str(dom), str(prob), "--scheme", scheme,
                     "--report", str(report_path)]) == 0
        built = json.loads(report_path.read_text())["built"]
        atoms += built["atoms"]
        effects += built["conditional_effects"]
    capsys.readouterr()
    assert (atoms, effects) == (1696, 7649)


def test_solve_validate_round_trip(tmp_path, capsys):
    dom, prob = gen_instance(tmp_path, "safe", 4)
    export = tmp_path / "out"
    report_path = tmp_path / "solve.json"
    code, out, err = run_cli(capsys, "solve", str(dom), str(prob),
                             "--export-pddl", str(export),
                             "--report", str(report_path))
    assert code == 0
    assert "validated over" in out
    report = json.loads(report_path.read_text())
    assert report["verdict"]["valid"]
    assert len(report["stripped_plan"]) == 4
    plan_file = export / "plan.txt"
    assert plan_file.exists()
    code, out, err = run_cli(capsys, "validate", str(dom), str(prob),
                             str(plan_file))
    assert code == 0
    assert "conformant: yes" in out


def test_validate_rejects_bad_plan(tmp_path, capsys):
    dom, prob = gen_instance(tmp_path, "safe", 4)
    plan_file = tmp_path / "bad.txt"
    plan_file.write_text("(try-c1)\n")
    code, out, err = run_cli(capsys, "validate", str(dom), str(prob),
                             str(plan_file))
    assert code == 1
    assert "conformant: no" in out
    assert "counterexample initial state" in out
    # unknown action names are an error, not a verdict
    plan_file.write_text("(warp)\n")
    code, out, err = run_cli(capsys, "validate", str(dom), str(prob),
                             str(plan_file))
    assert code == 2
    assert "error" in err


def test_solve_failure_reports_trace(tmp_path, capsys):
    dom = tmp_path / "d.pddl"
    prob = tmp_path / "p.pddl"
    dom.write_text("""(define (domain dead)
      (:predicates (p) (g))
      (:action a :parameters () :precondition (and) :effect (p)))
""")
    prob.write_text("""(define (problem dead-1) (:domain dead)
      (:init (not (p)) (not (g))) (:goal (g)))
""")
    code, out, err = run_cli(capsys, "solve", str(dom), str(prob))
    assert code == 1
    assert "failure" in err


def test_a_budget_out_is_a_failure_with_a_report(tmp_path, capsys):
    dom, prob = gen_instance(tmp_path, "safe", 8)
    report_path = tmp_path / "report.json"
    code, out, err = run_cli(capsys, "solve", str(dom), str(prob),
                             "--budget", "2", "--report", str(report_path))
    assert code == 1
    assert "failure: search budget exhausted" in err
    report = json.loads(report_path.read_text())
    assert any(s["status"] == "budget-out" for s in report["stages"])


@pytest.mark.parametrize("command", ["translate", "solve", "validate"])
def test_a_source_action_with_the_merge_prefix_exits_2(tmp_path, capsys,
                                                       command):
    dom, prob = tmp_path / "d.pddl", tmp_path / "p.pddl"
    dom.write_text("""(define (domain m) (:predicates (p))
      (:action merge__x :parameters () :precondition (and) :effect (p)))
""")
    prob.write_text("(define (problem m1) (:domain m) (:init) (:goal (p)))")
    plan_file = tmp_path / "plan.txt"
    plan_file.write_text("(merge__x)\n")
    plan = [str(plan_file)] if command == "validate" else []
    code, out, err = run_cli(capsys, command, str(dom), str(prob), *plan)
    assert code == 2
    assert err.startswith("error: ") and "reserved" in err


def test_the_cli_defaults_are_the_pipeline_defaults(monkeypatch):
    for name in list(os.environ):
        if name.startswith("KPLAN_"):
            monkeypatch.delenv(name)
    for argv in (["solve", "d", "p"], ["bench"]):
        args = cli.build_parser().parse_args(argv)
        assert cli._pipeline_config(args) == kplan.PipelineConfig()


@pytest.mark.parametrize("family,params,caps,error", [
    ("safe", (4,), "1,4096,5000", "TooManyInitialStates"),
    ("sortnet", (3,), "4096,1,5000", "TooManyModels"),
    ("safe", (4,), "4096,4096,1", "PiBlowup"),
])
def test_solve_cap_error_is_a_stage_status_with_a_report(
        tmp_path, capsys, family, params, caps, error):
    dom, prob = gen_instance(tmp_path, family, *params)
    report_path = tmp_path / "report.json"
    code, out, err = run_cli(capsys, "solve", str(dom), str(prob),
                             "--caps", caps, "--report", str(report_path))
    assert code == 1
    assert error in err
    report = json.loads(report_path.read_text())
    assert "failure" in report
    capped = [s for s in report["stages"] if s["status"] == "cap-exceeded"]
    assert capped and all(s["error"].startswith(error) for s in capped)
    # the ladder went on to its last stage
    assert report["stages"][-1]["scheme"] == "kmodels"


def test_solve_names_the_verdict_of_a_rejected_stage(tmp_path, capsys):
    # kmodels solves sortnet-4's compiled goal atoms, and the oracle
    # rejects the plan: stderr gives the oracle's reason beside the stage
    dom, prob = gen_instance(tmp_path, "sortnet", 4)
    report_path = tmp_path / "report.json"
    code, out, err = run_cli(capsys, "solve", str(dom), str(prob),
                             "--report", str(report_path))
    assert code == 1
    rejected = [s for s in json.loads(report_path.read_text())["stages"]
                if "verdict" in s]
    assert [s["scheme"] for s in rejected] == ["kmodels"]
    reason = rejected[0]["verdict"]["reason"]
    assert reason.startswith("goal clauses not satisfied: ")
    assert (f"  stage kmodels (copies=0): solved, plan rejected ({reason})\n"
            in err)


def test_translate_ks0_past_the_state_cap_exits_2_with_a_report(
        tmp_path, capsys):
    dom, prob = gen_instance(tmp_path, "safe", 4)
    ctx = kplan.build_context(kplan.pddl.load(dom.read_text(),
                                              prob.read_text()))
    with pytest.raises(kplan.TooManyInitialStates):
        kplan.spec_ks0(ctx, cap=1)
    report_path = tmp_path / "report.json"
    code, out, err = run_cli(capsys, "translate", str(dom), str(prob),
                             "--scheme", "ks0", "--caps", "1,4096,5000",
                             "--report", str(report_path))
    assert code == 2 and "translated with" not in out
    report = json.loads(report_path.read_text())
    assert report["command"] == "translate"
    assert report["error"].startswith("TooManyInitialStates: ")
    assert err == f"error: {report['error'].split(': ', 1)[1]}\n"


def test_bench_runs_every_instance_and_reports_it(tmp_path, capsys):
    report_path = tmp_path / "bench.json"
    code, out, err = run_cli(capsys, "bench", "--report", str(report_path))
    assert code == 0
    rows = json.loads(report_path.read_text())["rows"]
    assert [r["instance"] for r in rows] == [
        "-".join(map(str, (f, *p))) for f, p in cli.DEFAULT_BENCH]
    for r in rows:
        assert r["scheme"] in ("ki:1", "kmodels")
        assert r["stripped_length"] > 0
        assert (f"{r['instance']:<20} {r['scheme']:<8} "
                f"length={r['stripped_length']:<4}") in out


def test_bench_passes_caps_to_the_pipeline(tmp_path, capsys, monkeypatch):
    configs = []

    def fake_pipeline_solve(problem, config):
        configs.append(config)
        raise NoPlanFound("stopped", trace=[])

    monkeypatch.setattr(cli, "pipeline_solve", fake_pipeline_solve)
    code, out, err = run_cli(capsys, "bench", "--caps", "7,8,9",
                             "--report", str(tmp_path / "bench.json"))
    assert code == 0
    assert len(configs) == len(cli.DEFAULT_BENCH)
    assert {(c.state_cap, c.model_cap, c.pi_cap)
            for c in configs} == {(7, 8, 9)}


def test_width_command(tmp_path, capsys):
    dom, prob = gen_instance(tmp_path, "disjtoy", 4)
    code, out, err = run_cli(capsys, "width", str(dom), str(prob))
    assert code == 0
    assert "w(P) = 1" in out


def test_cli_reports_kplan_errors_as_exit_2(tmp_path, capsys):
    dom = tmp_path / "d.pddl"
    prob = tmp_path / "p.pddl"
    dom.write_text("(define (domain broken)")
    prob.write_text("(define (problem x) (:domain broken))")
    code, out, err = run_cli(capsys, "width", str(dom), str(prob))
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("command", ["translate", "solve", "validate",
                                     "width"])
def test_a_missing_input_file_exits_2(tmp_path, capsys, command):
    dom, prob = gen_instance(tmp_path, "safe", 4)
    plan_file = tmp_path / "plan.txt"
    plan_file.write_text("(try-c1)\n")
    plan = [str(plan_file)] if command == "validate" else []
    missing = str(tmp_path / "missing.pddl")
    report_path = tmp_path / "report.json"
    for files in ([missing, str(prob)], [str(dom), missing]):
        code, out, err = run_cli(capsys, command, *files, *plan,
                                 "--report", str(report_path))
        assert code == 2
        assert err.startswith("error: ") and "missing.pddl" in err
        report = json.loads(report_path.read_text())
        assert set(report) == {"command", "error"}
        assert report["command"] == command
        assert report["error"].startswith("FileNotFoundError: ")
        assert "missing.pddl" in report["error"]
        report_path.unlink()


def test_validate_with_a_missing_plan_file_exits_2(tmp_path, capsys):
    dom, prob = gen_instance(tmp_path, "safe", 4)
    code, out, err = run_cli(capsys, "validate", str(dom), str(prob),
                             str(tmp_path / "missing-plan.txt"))
    assert code == 2
    assert err.startswith("error: ") and "missing-plan.txt" in err


def bubble_network(n):
    return [f"cmp-{j}-{j + 1}" for p in range(n - 1) for j in range(1, n - p)]


@pytest.mark.parametrize("n,plan,valid", [
    (4, bubble_network(4), True),
    (4, bubble_network(4)[:-1], False),
    (5, bubble_network(5), True),
    (5, ["cmp-1-5", "cmp-1-4", "cmp-2-3", "cmp-3-4", "cmp-4-5", "cmp-1-2"],
     False),
], ids=["sortnet-4-bubble", "sortnet-4-bubble-less-one",
        "sortnet-5-bubble", "sortnet-5-six-comparators"])
def test_validate_judges_the_source_cnf_goal(tmp_path, capsys, n, plan,
                                             valid):
    dom, prob = gen_instance(tmp_path, "sortnet", n)
    plan_file = tmp_path / "plan.txt"
    plan_file.write_text("".join(f"({step})\n" for step in plan))
    code, out, err = run_cli(capsys, "validate", str(dom), str(prob),
                             str(plan_file))
    if valid:
        assert code == 0 and "conformant: yes" in out
    else:
        assert code == 1 and "reason: goal clauses not satisfied" in out


@pytest.mark.parametrize("scheme", ["bogus", "ki:x", "ki:-1"])
def test_translate_rejects_a_bad_scheme_before_reading_files(
        tmp_path, capsys, monkeypatch, scheme):
    missing = [str(tmp_path / "no-domain.pddl"),
               str(tmp_path / "no-problem.pddl")]
    with pytest.raises(SystemExit) as exc:
        main(["translate", *missing, "--scheme", scheme])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:") and f"'{scheme}'" in err
    assert "Traceback" not in err
    # the KPLAN_SCHEME default is checked the same way
    monkeypatch.setenv("KPLAN_SCHEME", scheme)
    with pytest.raises(SystemExit) as exc:
        main(["translate", *missing])
    assert exc.value.code == 2
    assert f"'{scheme}'" in capsys.readouterr().err


def test_a_ki_bound_is_read_without_leading_zeros(tmp_path, capsys):
    dom, prob = gen_instance(tmp_path, "safe", 4)
    capsys.readouterr()
    runs = []
    for scheme in ("ki:01", "ki:1"):
        report_path = tmp_path / "report.json"
        code, out, _ = run_cli(capsys, "translate", str(dom), str(prob),
                               "--scheme", scheme,
                               "--report", str(report_path))
        assert code == 0
        runs.append((out, strip_timings(json.loads(report_path.read_text()))))
    assert runs[0] == runs[1]
    assert runs[0][1]["scheme"] == "ki:1"


BAD_VALUES = [("--caps", "CAPS", "1,2"), ("--caps", "CAPS", "-1,5,5"),
              ("--caps", "CAPS", "0,0,0"), ("--caps", "CAPS", "a,b,c"),
              ("--budget", "BUDGET", "x"), ("--budget", "BUDGET", "0"),
              ("--budget", "BUDGET", "10,0"), ("--budget", "BUDGET", "10,-1"),
              ("--budget", "BUDGET", "1,2,3"),
              ("--nondet-copies", "NONDET_COPIES", "0"),
              ("--nondet-copies", "NONDET_COPIES", "x")]


@pytest.mark.parametrize("flag,env,value", BAD_VALUES,
                         ids=[f"{f}={v}" for f, _, v in BAD_VALUES])
def test_bad_caps_budgets_and_copies_are_usage_errors(
        tmp_path, capsys, monkeypatch, flag, env, value):
    missing = [str(tmp_path / "no-domain.pddl"),
               str(tmp_path / "no-problem.pddl")]
    with pytest.raises(SystemExit) as exc:
        main(["solve", *missing, f"{flag}={value}"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:") and flag in err
    assert "Traceback" not in err
    # the KPLAN_* default is checked the same way, for the subcommands
    # that take the flag
    monkeypatch.setenv("KPLAN_" + env, value)
    with pytest.raises(SystemExit) as exc:
        main(["solve", *missing])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:") and flag in err
    assert main(["gen", "safe", "3", "-o", str(tmp_path)]) == 0


# the options each subcommand's handler reads, and so the only ones it takes
OPTION_DESTS = {
    "translate": {"caps", "export_pddl", "report", "scheme"},
    "solve": {"caps", "budget", "nondet_copies", "export_pddl", "report"},
    "validate": {"caps", "report"},
    "width": {"caps", "report"},
    "bench": {"caps", "budget", "nondet_copies", "report"},
    "gen": {"output_dir"},
}


def test_each_subcommand_takes_only_the_options_its_handler_reads():
    parser = cli.build_parser()
    subparsers = next(a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction))
    assert {name: {a.dest for a in sub._actions
                   if a.option_strings and a.dest != "help"}
            for name, sub in subparsers.choices.items()} == OPTION_DESTS


def test_the_readme_flag_table_is_the_parser():
    """Each row of README's subcommand table lists exactly the option
    strings of that subcommand's parser, less -h/--help."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    documented = {
        name: set(re.findall(r"(?<![\w-])--?[a-z][a-z-]*",
                             " ".join(re.findall(r"`([^`]*)`", flags))))
        for name, flags in re.findall(r"^\| `(\w+)[^`]*` \| (.*) \|$",
                                      readme, re.M)}
    subparsers = next(a for a in cli.build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    assert documented == {
        name: {s for a in sub._actions for s in a.option_strings}
        - {"-h", "--help"}
        for name, sub in subparsers.choices.items()}


NOT_READ = ["--opt", "--no-opt", "--budget=10", "--strengthened-mutex",
            "--nondet-copies=2", "--export-pddl=out"]
DROPPED = ([("validate", flag) for flag in NOT_READ]
           + [("width", flag) for flag in NOT_READ]
           + [("translate", "--budget=10"), ("translate", "--nondet-copies=2"),
              ("bench", "--export-pddl=out")]
           + [(command, "--strengthened-mutex")
              for command in ("translate", "solve", "bench")]
           + [(command, flag) for command in ("translate", "solve", "bench")
              for flag in ("--opt", "--no-opt")])


@pytest.mark.parametrize("command,flag", DROPPED,
                         ids=[f"{c}{f}" for c, f in DROPPED])
def test_an_option_the_handler_does_not_read_is_a_usage_error(
        tmp_path, capsys, command, flag):
    # none of the files exists: an exit past parsing would be main's
    # "error: ..." return, not argparse's SystemExit
    files = {"validate": ["d.pddl", "p.pddl", "plan.txt"],
             "bench": []}.get(command, ["d.pddl", "p.pddl"])
    with pytest.raises(SystemExit) as exc:
        main([command, *[str(tmp_path / f) for f in files], flag])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:") and flag in err
    assert "Traceback" not in err


@pytest.mark.parametrize("env,value", [("BUDGET", "x"),
                                       ("NONDET_COPIES", "0")])
@pytest.mark.parametrize("command", ["translate", "validate", "width"])
def test_an_override_the_subcommand_does_not_read_is_ignored(
        tmp_path, capsys, monkeypatch, command, env, value):
    dom, prob = gen_instance(tmp_path, "sortnet", 4)
    plan_file = tmp_path / "plan.txt"
    plan_file.write_text("".join(f"({step})\n" for step in bubble_network(4)))
    plan = [str(plan_file)] if command == "validate" else []
    monkeypatch.setenv("KPLAN_" + env, value)
    code, out, err = run_cli(capsys, command, str(dom), str(prob), *plan)
    assert code == 0, err


def overrides_read(source: str):
    """The KPLAN_* names a cli source reads: the constant name of every
    ``_option(FLAG, NAME, ...)`` call."""
    return {"KPLAN_" + node.args[1].value
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "_option"
            and isinstance(node.args[1], ast.Constant)}


ENVIRONMENT = {"environ", "environb", "getenv", "getenvb"}


def environment_reads(source: str):
    """(function, line) of every read of the environment in a cli source
    outside ``_option``, the function None at module level: only
    ``_option`` may read it, so that each KPLAN_* value reaches argparse
    as a string default that the flag's ``type`` checks."""
    reads = []

    def scan(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scan(child, child.name)
                continue
            if isinstance(child, ast.Attribute):
                read = (isinstance(child.value, ast.Name)
                        and child.value.id == "os"
                        and child.attr in ENVIRONMENT)
            elif isinstance(child, ast.ImportFrom):
                read = child.module == "os" and any(
                    alias.name in ENVIRONMENT for alias in child.names)
            else:
                read = False
            if read and function != "_option":
                reads.append((function, child.lineno))
            scan(child, function)

    scan(ast.parse(source), None)
    return reads


def test_the_scan_finds_environment_reads_outside_option():
    # the --opt/--no-opt group that read KPLAN_OPT itself, so that any
    # value but 0, false or no turned the rewrites on
    source = (
        "import os\n"
        "from os import environ, path\n"
        "def _opt(p):\n"
        "    opt = p.add_mutually_exclusive_group()\n"
        "    opt.add_argument('--opt', dest='opt', action='store_true')\n"
        "    opt.add_argument('--no-opt', dest='opt', action='store_false')\n"
        "    p.set_defaults(opt=os.environ.get('KPLAN_OPT', '1')\n"
        "                   not in ('0', 'false', 'no'))\n"
        "def _option(flag, env, default, **kwargs):\n"
        "    return lambda p: p.add_argument(\n"
        "        flag, default=os.environ.get('KPLAN_' + env, default),\n"
        "        **kwargs)\n"
        "QUIET = os.getenv('KPLAN_QUIET')\n")
    assert environment_reads(source) == [(None, 2), ("_opt", 7), (None, 13)]


def test_the_cli_reads_the_environment_only_in_option():
    assert environment_reads(Path(cli.__file__).read_text()) == []


def test_the_readme_names_exactly_the_overrides_the_cli_reads():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    documented = set(re.findall(r"KPLAN_[A-Z][A-Z_]*", readme.read_text()))
    read = overrides_read(Path(cli.__file__).read_text())
    assert read and documented == read


def test_the_readme_names_only_what_the_modules_define():
    """Every backticked ``module.name`` in README.md whose first part (after
    an optional ``kplan.``) is a kplan module names an attribute there."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    modules = {p.stem for p in Path(kplan.__file__).parent.glob("*.py")}
    checked = []
    for ref in re.findall(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)`",
                          readme.read_text()):
        parts = ref.split(".")
        if parts[0] == "kplan":
            parts = parts[1:]
        if parts[0] not in modules:
            continue
        target = importlib.import_module("kplan." + parts[0])
        for name in parts[1:]:
            assert hasattr(target, name), ref
            target = getattr(target, name)
        checked.append(ref)
    assert len(checked) >= 5


def test_a_bad_environment_value_is_a_usage_error_in_a_process(tmp_path):
    env = dict(os.environ, KPLAN_CAPS="1,2",
               PYTHONPATH=str(Path(kplan.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "kplan.cli", "width", "d.pddl", "p.pddl"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stderr.startswith("usage:") and "--caps" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_a_flag_overrides_a_bad_environment_default(tmp_path, capsys,
                                                    monkeypatch):
    dom, prob = gen_instance(tmp_path, "disjtoy", 4)
    monkeypatch.setenv("KPLAN_CAPS", "1,2")
    code, out, err = run_cli(capsys, "width", str(dom), str(prob),
                             "--caps", "4096,4096,5000")
    assert code == 0 and "w(P) = 1" in out


def test_an_error_exit_writes_a_report(tmp_path, capsys):
    dom, prob = gen_instance(tmp_path, "safe", 4)
    report_path = tmp_path / "report.json"
    code, out, err = run_cli(capsys, "translate", str(dom), str(prob),
                             "--caps", "4096,4096,1",
                             "--report", str(report_path))
    assert code == 2 and err.startswith("error: ")
    report = json.loads(report_path.read_text())
    assert report["command"] == "translate"
    assert report["error"].startswith("PiBlowup: ")


def test_grounding_past_the_rule_cap_exits_2_with_a_report(tmp_path, capsys,
                                                           monkeypatch):
    dom, prob = gen_instance(tmp_path, "safe", 6)
    monkeypatch.setattr(kplan.pddl, "RULE_CAP", 10)
    message = "grounding exceeded 10 rule instances"
    with pytest.raises(GroundingBlowup) as raised:
        kplan.pddl.load(dom.read_text(), prob.read_text())
    assert str(raised.value) == message
    report_path = tmp_path / "report.json"
    code, out, err = run_cli(capsys, "solve", str(dom), str(prob),
                             "--report", str(report_path))
    assert code == 2 and err == f"error: {message}\n"
    assert json.loads(report_path.read_text()) == {
        "command": "solve", "error": f"GroundingBlowup: {message}"}


def _domain(predicates, *actions):
    return (f"(define (domain d) (:predicates {predicates})"
            + "".join(f" (:action {name} :parameters ({params})"
                      f" :precondition (and) :effect {effect})"
                      for name, params, effect in actions) + ")")


def _problem(init, goal, objects=""):
    return (f"(define (problem d1) (:domain d) (:objects {objects})"
            f" (:init {init}) {goal})")


SET_P = ("a", "", "(p)")


@pytest.mark.parametrize("domain,problem,error,parts", [
    (_domain("(p)", SET_P), _problem("", "(:goal)"),
     "PddlSyntaxError", ["':goal' takes one formula (line 1"]),
    (_domain("(p)", SET_P), _problem("(or)", "(:goal (p))"),
     "PddlSyntaxError", ["'or' needs at least one literal (line 1"]),
    (_domain("(p)", SET_P), _problem("", "(:goal (and (p) (or)))"),
     "PddlSyntaxError", ["'or' needs at least one literal (line 1"]),
    (_domain("((p)) (q)", SET_P), _problem("", "(:goal (p))"),
     "PddlSyntaxError", ["expected a predicate declaration"]),
    (_domain("(p ?x) (p-a ?x)", ("set", "", "(p-a b)")),
     _problem("", "(:goal (p a-b))", "a-b b"),
     "UnsupportedFeature", ["(p a-b)", "(p-a b)", "'p-a-b'"]),
    (_domain("(p ?x)", ("go", "?x", "(p ?x)"), ("go-a", "?x", "(p ?x)")),
     _problem("", "(:goal (p b))", "a-b b"),
     "UnsupportedFeature", ["(go a-b)", "(go-a b)", "'go-a-b'"]),
    (_domain("(p) (q)", SET_P, ("a", "", "(q)")), _problem("", "(:goal (p))"),
     "UnsupportedFeature", ["actions (a) and (a)", "'a'"]),
    (_domain("(p) (q)", ("pick", "", "(oneof (p) (q))"),
             ("pick-c1", "", "(p)")),
     _problem("(not (p)) (not (q))", "(:goal (p))"),
     "UnsupportedFeature", ["oneof front end", "action name 'pick-c1'"]),
    (_domain("(p) (q)", ("a", "", "(oneof (p) (q))"),
             ("reset-a", "", "(oneof (p) (q))")),
     _problem("(not (p)) (not (q))", "(:goal (p))"),
     "UnsupportedFeature", ["oneof front end", "action name 'reset-a-c1'"]),
    (_domain("(p) (q) (goal-c0)", SET_P),
     _problem("", "(:goal (or (p) (q)))"),
     "UnsupportedFeature", ["clause-goal front end",
                            "fluent name 'goal-c0'"])],
    ids=["missing-goal", "empty-init-or", "empty-goal-or",
         "unnamed-predicate", "atoms-print-alike", "actions-print-alike",
         "action-defined-twice", "oneof-copy-name-taken",
         "oneof-reset-minted-twice", "goal-atom-name-taken"])
def test_an_input_error_exits_2_with_a_report(tmp_path, capsys, domain,
                                              problem, error, parts):
    dom, prob = tmp_path / "d.pddl", tmp_path / "p.pddl"
    dom.write_text(domain)
    prob.write_text(problem)
    report_path = tmp_path / "report.json"
    code, out, err = run_cli(capsys, "solve", str(dom), str(prob),
                             "--report", str(report_path))
    assert code == 2 and err.startswith("error: ") and not out
    report = json.loads(report_path.read_text())
    assert set(report) == {"command", "error"}
    assert report["command"] == "solve"
    assert report["error"].startswith(error + ": ")
    for part in parts:
        assert part in report["error"]


def test_a_problem_for_another_domain_exits_2_with_a_report(tmp_path,
                                                            capsys):
    dom, _ = gen_instance(tmp_path, "safe", 4)
    _, prob = gen_instance(tmp_path, "bomb", 3, 3)
    report_path = tmp_path / "report.json"
    code, out, err = run_cli(capsys, "solve", str(dom), str(prob),
                             "--report", str(report_path))
    assert code == 2 and err.startswith("error: the problem is for domain")
    report = json.loads(report_path.read_text())
    assert report["command"] == "solve"
    assert report["error"].startswith("PddlSyntaxError: the problem is for "
                                      "domain ")


def test_an_unwritable_error_report_still_exits_2(tmp_path, capsys):
    dom, prob = gen_instance(tmp_path, "safe", 4)
    code, out, err = run_cli(capsys, "width", str(dom),
                             str(tmp_path / "missing.pddl"), "--report",
                             str(tmp_path / "no-dir" / "report.json"))
    assert code == 2
    assert err.startswith("error: ") and "missing.pddl" in err


def assert_refuses_oneof_effects(tmp_path, capsys, command):
    dom, prob = gen_instance(tmp_path, "sgripper", 1)
    capsys.readouterr()
    report_path = tmp_path / "report.json"
    code, out, err = run_cli(capsys, command, str(dom), str(prob),
                             "--report", str(report_path))
    message = (f"{command} takes deterministic input; "
               "`kplan solve` compiles oneof effects")
    assert (code, out, err) == (2, "", f"error: {message}\n")
    assert json.loads(report_path.read_text()) == {
        "command": command, "error": f"UnsupportedFeature: {message}"}


def test_width_rejects_oneof_effects(tmp_path, capsys):
    assert_refuses_oneof_effects(tmp_path, capsys, "width")


def test_translate_rejects_oneof_effects(tmp_path, capsys):
    assert_refuses_oneof_effects(tmp_path, capsys, "translate")


@pytest.mark.parametrize("domain,problem,parts", [
    (_domain("(p) (not-p) (g)", ("b", "", "(not (p))"),
             ("a", "", "(when (not-p) (g))")),
     _problem("(p) (not (not-p)) (not (g))", "(:goal (g))"),
     ["of not-p and of ~p", "'Knot-p'"]),
    (_domain("(p) (q) (s) (p__q) (g)", ("a", "", "(when (q) (p))"),
             ("d", "", "(when (s) (p))"), ("c", "", "(when (p) (g))")),
     _problem("(oneof (q) (s)) (not (p)) (not (p__q)) (not (g))",
              "(:goal (g))"),
     ["of p__q and of p under the tag {q}", "'Kp__q'"])],
    ids=["negation-prefix", "tag-separator"])
@pytest.mark.parametrize("command", ["solve", "translate"])
def test_knowledge_atoms_that_print_alike_are_an_input_error(
        tmp_path, capsys, domain, problem, parts, command):
    # ktm refuses them itself, without and with (as the CLI builds it)
    # the rewrites
    source = kplan.pddl.load(domain, problem)
    ctx = kplan.build_context(source)
    for optimized in (False, True):
        with pytest.raises(kplan.UnsupportedFeature) as raised:
            kplan.ktm(source, kplan.spec_ki(ctx, 1), ctx, optimized=optimized)
    assert all(part in str(raised.value) for part in parts)
    dom, prob = tmp_path / "d.pddl", tmp_path / "p.pddl"
    dom.write_text(domain)
    prob.write_text(problem)
    report_path = tmp_path / "report.json"
    code, out, err = run_cli(capsys, command, str(dom), str(prob),
                             "--report", str(report_path))
    assert code == 2 and err == f"error: {raised.value}\n" and not out
    assert json.loads(report_path.read_text()) == {
        "command": command,
        "error": f"UnsupportedFeature: {raised.value}"}
