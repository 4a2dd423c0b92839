"""Command-line interface smoke and determinism tests."""

import json

import pytest

from kplan import cli
from kplan.cli import main
from kplan.errors import NoPlanFound, WidthSearchCap


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


def test_translate_warns_when_a_width_search_hits_its_cap(
        tmp_path, capsys, monkeypatch):
    real = cli.width_of_literal
    capped = []

    def width_of_literal(ci, L, rel, pi, cap=None):
        if not capped:  # the first target literal; later ones are searched
            capped.append(L)
            raise WidthSearchCap(f"no witness for literal {L}")
        return real(ci, L, rel, pi, cap)

    monkeypatch.setattr(cli, "width_of_literal", width_of_literal)
    dom, prob = gen_instance(tmp_path, "bomb", 3, 3)
    report_path = tmp_path / "report.json"
    code, out, err = run_cli(capsys, "translate", str(dom), str(prob),
                             "--scheme", "ki:1",
                             "--report", str(report_path))
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["widths"]["width"] is None
    assert report["widths"]["literals"][str(capped[0])]["width"] is None
    assert len(report["widths"]["literals"]) > 1
    assert "completeness is not guaranteed" in report["warning"]


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


def test_bench_passes_caps_and_mutex_variant_to_the_pipeline(
        tmp_path, capsys, monkeypatch):
    configs = []

    def fake_pipeline_solve(problem, config):
        configs.append(config)
        raise NoPlanFound("stopped", trace=[])

    monkeypatch.setattr(cli, "pipeline_solve", fake_pipeline_solve)
    code, out, err = run_cli(capsys, "bench", "--caps", "7,8,9",
                             "--strengthened-mutex",
                             "--report", str(tmp_path / "bench.json"))
    assert code == 0
    assert len(configs) == len(cli.DEFAULT_BENCH)
    assert {(c.state_cap, c.model_cap, c.pi_cap, c.strengthened_mutex)
            for c in configs} == {(7, 8, 9, True)}


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
    for files in ([missing, str(prob)], [str(dom), missing]):
        code, out, err = run_cli(capsys, command, *files, *plan)
        assert code == 2
        assert err.startswith("error: ") and "missing.pddl" in err


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
