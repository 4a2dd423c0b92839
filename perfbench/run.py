"""kplan benchmark: solve / translate / validate ops driven in-process
through `kplan.cli.main`, each output checked against answers the
benchmark owns.

    python3 perfbench/run.py --workload solve --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 50

A run imports `kplan` from `src/` of the checkout it sits in, generates
its instances and plan files, runs one untimed warm-up op, then cycles
round-robin over the workload's ops (closed loop, one client), starting
at an offset chosen by `--seed`.  It times as many whole cycles as fit a
run of `--seconds` on the reference host (`workloads.CYCLE_SECONDS`), at
least `MIN_CYCLES`, so every run of a workload times the same ops.  Each
op is timed around `kplan.cli.main([...])` alone; its `--report` JSON
and exported files are checked untimed (`Harness.check`,
`Harness.settle`).  Fresh processes time at least `SETUP_PASSES` cold
set-up passes (`setup_pass`), shared out before the cycles: importing
`kplan`, writing the files and running the warm-up op.  The last stdout
line is one JSON object: with `--trace 0` the end-to-end
metrics, with `--trace 1` the per-layer metrics of a run that alternates
untraced and traced instance cycles and writes its spans to
`perfbench/out/`.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import math
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace
from typing import Dict, List, Optional

from oracle import SourceOracle
from tracing import COUNT_METRICS, SELF_TIME_METRICS, Tracer
from workloads import CYCLE_SECONDS, FIXED_SECONDS, WARMUP, WORKLOADS, Op

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
# A run times whole instance cycles, the same number in every run of a
# workload, so each instance contributes equally and the quantiles always
# fall at the same ranks.  With four cycles or more, the ten samples above
# the tail are the repeats of the slowest instances, not one outlier.
MIN_CYCLES = 4
# cold set-up passes a run times at least: the median of nine moves less
# with the host's speed than that of the five cycles a translate run has
SETUP_PASSES = 9
# stop starting cycles after this long, so a much slower program still
# ends within the time a run is allowed
MAX_LOOP_SECONDS = 120
KPLAN_MODULES = ("cli", "generators", "pddl", "analysis", "translate",
                 "planner", "pipeline", "verify")
# exact counts summed over one instance cycle: metric -> report count
CYCLE_TOTALS = {"plan_steps": "plan_steps", "encoding_atoms": "atoms",
                "encoding_effects": "effects"}
# exact per-op counts reported as per-instance rows, by command
ROW_COUNTS = {
    "solve": ("plan_steps", "atoms", "planner.expanded",
              "planner.hadd_calls"),
    "translate": ("atoms", "effects"),
    "validate": ("states_checked",),
}
# per-layer metrics that only the validate workload, which is run by hand
# and not listed in BENCHMARK.json, can make non-zero
VALIDATE_ONLY = ("verify.zero_approx_s",)
# expansions the benchmark's own search of an emitted classical problem
# may spend (square-center-8 ks0, the largest, needs about 800)
CHECK_NODES = 20_000


def code_digest() -> str:
    """Digest of the `kplan` sources and the benchmark's own code: all a
    verdict on an emitted problem depends on, besides the problem."""
    digest = hashlib.sha256()
    for path in sorted([*(ROOT / "src" / "kplan").rglob("*.py"),
                        *(ROOT / "perfbench").glob("*.py")]):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


def load_kplan() -> SimpleNamespace:
    """Import kplan from this checkout's `src/`; returns the modules.
    Exits with code 1 when the sources are missing."""
    src = ROOT / "src"
    if not (src / "kplan" / "__init__.py").is_file():
        sys.exit(f"run.py: no kplan sources under {src}")
    # the CLI takes its caps, budget and scheme defaults from KPLAN_*
    for key in [k for k in os.environ if k.startswith("KPLAN_")]:
        del os.environ[key]
    sys.path.insert(0, str(src))
    modules = {m: importlib.import_module(f"kplan.{m}")
               for m in KPLAN_MODULES}
    if not Path(modules["cli"].__file__).resolve().is_relative_to(src):
        sys.exit(f"run.py: kplan was imported from outside {src}")
    return SimpleNamespace(**modules)


def calibrate(loops: int = 5, n: int = 400_000) -> float:
    """Median time of a fixed pure-Python loop: a host-speed reading."""
    times = []
    for _ in range(loops):
        start = time.perf_counter()
        x = 0
        for i in range(n):
            x += i & 7
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def tail(samples: List[float]):
    """(percentile, value): the highest whole percentile with at least ten
    samples above its nearest-rank value; (100, max) below 11 samples."""
    ordered = sorted(samples)
    n = len(ordered)
    for p in range(99, 0, -1):
        rank = math.ceil(p * n / 100)
        if n - rank >= 10:
            return p, ordered[rank - 1]
    return 100, ordered[-1]


def _atoms(node):
    """Atom names in a parsed formula: the one-element lists."""
    if isinstance(node, list):
        if len(node) == 1 and isinstance(node[0], str) and node[0] != "and":
            yield node[0]
        else:
            for x in node:
                yield from _atoms(x)


def count_emitted(domain_text: str, problem_text: str) -> Dict[str, int]:
    """Atoms and conditional effects of emitted classical PDDL, counted
    from the text; raises ValueError when the text is not well formed."""
    def parse(text):
        stack = [[]]
        for tok in re.findall(r"\(|\)|[^\s()]+", text):
            if tok == "(":
                stack.append([])
            elif tok == ")":
                if len(stack) == 1:
                    raise ValueError("unbalanced ')'")
                done = stack.pop()
                stack[-1].append(done)
            else:
                stack[-1].append(tok)
        if len(stack) != 1 or len(stack[0]) != 1:
            raise ValueError("unbalanced '(' or trailing text")
        return stack[0][0]

    domain, problem = parse(domain_text), parse(problem_text)
    sections = [x for x in domain if isinstance(x, list) and x]
    predicates = {p[0] for s in sections if s[0] == ":predicates"
                  for p in s[1:]}
    effects = 0
    for s in sections:
        if s[0] == ":action":
            eff = s[s.index(":effect") + 1]
            effects += len(eff) - 1 if eff[0] == "and" else 1
    used = set()
    for s in problem:
        if isinstance(s, list) and s and s[0] in (":init", ":goal"):
            used.update(_atoms(s[1:]))
    if not used <= predicates:
        raise ValueError(f"undeclared atoms: {sorted(used - predicates)[:3]}")
    return {"atoms": len(predicates), "effects": effects}


@dataclass
class Result:
    op: Op
    wall: float
    failure: Optional[str] = None
    counts: Dict[str, int] = field(default_factory=dict)
    # translate: the emitted texts and whether the scheme's width bound
    # covers the problem, judged later by `Harness.settle`
    emitted: Optional[tuple] = None


class Harness:
    """Generates a workload's files, runs its ops and checks them."""

    def __init__(self, kp, workload: str, work: Path, ops=None,
                 verdicts: Optional[Path] = None):
        self.kp = kp
        self.workload = workload
        self.ops = WORKLOADS[workload] if ops is None else ops
        self.work = work
        self.oracles: Dict[str, SourceOracle] = {}
        self._judged: dict = {}
        self._emitted: dict = {}
        self._classical: dict = {}
        # where `verdict` keeps the judgements of emitted problems
        self.verdicts = verdicts
        self.verdicts_read = 0
        self.code = code_digest() if verdicts is not None else None
        self.op_names: Dict[int, str] = {}  # traced op id -> op name

    def _path(self, op: Op, suffix: str) -> Path:
        return self.work / f"{op.instance}-{suffix}"

    def prepare(self):
        """Generate every instance and write its PDDL and plan files."""
        self.work.mkdir(parents=True, exist_ok=True)
        for op in self.ops:
            domain, problem = self.kp.generators.generate(op.family,
                                                          op.params)
            self._path(op, "domain.pddl").write_text(domain)
            self._path(op, "problem.pddl").write_text(problem)
            if op.plan is not None:
                (self.work / f"{op.name}.plan").write_text(
                    "".join(f"({s})\n" for s in op.plan))

    def prepare_oracles(self):
        """Load each source problem for the oracle and confirm the known
        answer of every validate plan."""
        for op in self.ops:
            if op.instance not in self.oracles:
                problem = self.kp.pddl.load(
                    self._path(op, "domain.pddl").read_text(),
                    self._path(op, "problem.pddl").read_text())
                self.oracles[op.instance] = SourceOracle(problem)
            if op.plan is not None:
                judged = self.oracles[op.instance].check(op.plan)
                if judged.valid != op.expect_valid:
                    raise RuntimeError(f"benchmark plan {op.name}: oracle "
                                       f"says {judged.reason}")

    def argv(self, op: Op) -> List[str]:
        files = [str(self._path(op, "domain.pddl")),
                 str(self._path(op, "problem.pddl"))]
        report = ["--report", str(self.work / f"{op.name}.report.json")]
        if op.command == "solve":
            return ["solve", *files, *report]
        if op.command == "translate":
            return ["translate", *files, "--scheme", op.scheme,
                    "--export-pddl", str(self.work / f"{op.name}.out"),
                    *report]
        return ["validate", *files, str(self.work / f"{op.name}.plan"),
                *report]

    def run(self, op: Op, check: bool = True) -> Result:
        report = self.work / f"{op.name}.report.json"
        report.unlink(missing_ok=True)
        argv = self.argv(op)
        sink = io.StringIO()
        gc.collect()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), \
                    contextlib.redirect_stderr(sink):
                rc = self.kp.cli.main(argv)
        except (Exception, SystemExit):  # argparse exits on bad arguments
            wall = time.perf_counter() - start
            last = traceback.format_exc().strip().splitlines()[-1]
            return Result(op, wall, f"raised {last}")
        wall = time.perf_counter() - start
        result = Result(op, wall)
        if check:
            try:
                self.check(result, rc, report, sink.getvalue())
            except (KeyError, OSError, ValueError) as exc:
                result.failure = f"unreadable output: {exc!r}"
        return result

    def check(self, result: Result, rc, report: Path, output: str):
        """Fail the op on an unexpected exit code, a plan the oracle
        rejects, a wrong forced length, a verdict that differs from the
        known answer, or sizes that disagree with the emitted files.  The
        emitted classical problems are judged later, in `settle`."""
        op = result.op
        doc = json.loads(report.read_text()) if report.exists() else {}
        if "conformant" in doc:
            result.counts["states_checked"] = doc["conformant"][
                "states_checked"]
        expected_rc = 1 if op.expect_valid is False else 0
        if rc != expected_rc:
            said = " | ".join(line.strip()
                              for line in output.strip().splitlines()[:2])
            result.failure = f"exit code {rc}, expected {expected_rc}: {said}"
            return
        if op.command == "solve":
            steps = tuple(doc["stripped_plan"])
            result.counts["plan_steps"] = len(steps)
            for key, size in (("atoms", "atoms"),
                              ("effects", "conditional_effects")):
                result.counts[key] = sum(stage["translation"][size]
                                         for stage in doc["stages"])
            key = (op.instance, steps)
            if key not in self._judged:
                self._judged[key] = self.oracles[op.instance].check(steps)
            judged = self._judged[key]
            if not judged.valid:
                result.failure = f"oracle rejects the plan: {judged.reason}"
            elif op.forced_length() not in (None, judged.source_steps):
                result.failure = (f"plan has {judged.source_steps} steps, "
                                  f"forced length is {op.forced_length()}")
        elif op.command == "translate":
            sizes = doc["translation"]
            result.counts["atoms"] = sizes["atoms"]
            result.counts["effects"] = sizes["conditional_effects"]
            out = self.work / f"{op.name}.out"
            texts = ((out / "domain.pddl").read_text(),
                     (out / "problem.pddl").read_text())
            if texts not in self._emitted:
                try:
                    self._emitted[texts] = (texts, count_emitted(*texts))
                except ValueError as exc:
                    self._emitted[texts] = (texts, {"error": str(exc)})
            # the first copy of the texts, so repeats keep no copies alive
            texts, emitted = self._emitted[texts]
            if emitted != {k: result.counts[k] for k in ("atoms", "effects")}:
                result.failure = f"report {result.counts} but emitted " \
                                 f"files hold {emitted}"
                return
            result.emitted = (texts, "warning" not in doc)
        else:
            verdict = doc["conformant"]
            total = len(self.oracles[op.instance].initial)
            if verdict["valid"] != op.expect_valid:
                result.failure = f"verdict valid={verdict['valid']}, " \
                                 f"known answer valid={op.expect_valid}"
            elif op.expect_valid and verdict["states_checked"] != total:
                result.failure = f"checked {verdict['states_checked']} " \
                                 f"initial states of {total}"

    def settle(self, results: List[Result]):
        """Judge each distinct emitted classical problem once and fail
        the ops that emitted one the check rejects.  Runs after the timed
        ops, so its memory does not count in their peak."""
        for r in results:
            if r.emitted is not None and r.failure is None:
                if r.emitted not in self._classical:
                    self._classical[r.emitted] = self.verdict(
                        r.op, *r.emitted)
                r.failure = self._classical[r.emitted]

    def verdict(self, op: Op, texts, complete: bool) -> Optional[str]:
        """`judge_emitted`, kept on disk under `self.verdicts` when that is
        set, keyed by the emitted texts and `code_digest`, so the runs of
        one checkout search each distinct emitted problem once."""
        if self.verdicts is None:
            return self.judge_emitted(op, texts, complete)
        key = hashlib.sha256(json.dumps(
            [self.code, op.instance, complete, *texts]).encode()).hexdigest()
        path = self.verdicts / f"{key}.json"
        if path.is_file():
            self.verdicts_read += 1
            return json.loads(path.read_text())["failure"]
        failure = self.judge_emitted(op, texts, complete)
        self.verdicts.mkdir(parents=True, exist_ok=True)
        partial = path.with_suffix(f".{os.getpid()}.part")
        partial.write_text(json.dumps({"failure": failure}))
        os.replace(partial, path)
        return failure

    def judge_emitted(self, op: Op, texts, complete: bool) -> Optional[str]:
        """Solve an emitted classical problem with `kplan.planner`, drop
        the merge steps and let the source oracle judge the plan; returns
        the reason the op fails, or None.  An unsolvable encoding fails
        only when the scheme's width bound covers the problem
        (`complete`)."""
        kp = self.kp
        found = kp.planner.solve(kp.pddl.load_classical(*texts),
                                 max_nodes=CHECK_NODES)
        status = kp.planner.SolveStatus
        if found.status is status.UNSOLVABLE:
            return None if not complete else \
                "emitted problem is unsolvable, though the width is covered"
        if found.status is not status.SOLVED:
            return f"no plan for the emitted problem in {CHECK_NODES} " \
                   "expansions"
        steps = [s for s in found.plan.steps
                 if not s.startswith(kp.translate.MERGE_PREFIX)]
        judged = self.oracles[op.instance].check(steps)
        return None if judged.valid else \
            f"oracle rejects a plan of the emitted problem: {judged.reason}"

    def cycle(self, start: int, tracer: Optional[Tracer] = None):
        """One pass over every op, beginning at index `start`."""
        n = len(self.ops)
        results = []
        for i in range(n):
            if tracer is not None:
                tracer.op_id += 1
                self.op_names[tracer.op_id] = self.ops[(start + i) % n].name
            results.append(self.run(self.ops[(start + i) % n]))
        return results


def warm_up(harness: Harness):
    """Generate and write every file, then run the warm-up op."""
    harness.prepare()
    warmup = next(op for op in harness.ops
                  if op.name == WARMUP[harness.workload])
    harness.run(warmup, check=False)


def cold_set_up(workload: str):
    """In a fresh process: time importing `kplan` and `warm_up`; print
    the seconds as JSON."""
    start = time.perf_counter()
    kp = load_kplan()
    work = OUT / f"setup-{workload}-{os.getpid()}"
    try:
        warm_up(Harness(kp, workload, work))
        elapsed = time.perf_counter() - start
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"setup_s": elapsed}))


def setup_pass(workload: str) -> float:
    """Seconds of one cold set-up pass, timed in a child process."""
    proc = subprocess.run(
        [sys.executable, __file__, "--workload", workload, "--cold-set-up"],
        stdout=subprocess.PIPE, text=True, cwd=ROOT, timeout=120,
        check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def cycle_totals(results: List[Result]):
    """Exact per-cycle totals of the report counts in CYCLE_TOTALS, and
    whether every repeat of an op reported the same counts."""
    first: Dict[tuple, int] = {}
    agree = True
    for r in results:
        for metric, key in CYCLE_TOTALS.items():
            if key in r.counts:
                seen = first.setdefault((metric, r.op.name), r.counts[key])
                agree = agree and seen == r.counts[key]
    return {m: sum(v for (mm, _), v in first.items() if mm == m)
            for m in CYCLE_TOTALS}, agree


def outcome(results: List[Result]) -> Dict:
    failed = [r for r in results if r.failure]
    return {"correct": not failed, "attempted": len(results),
            "failed": len(failed)}


def summary_lines(workload: str, results: List[Result]) -> List[str]:
    failed = [r for r in results if r.failure]
    lines = [f"  fail_ratio {len(failed) / len(results):.4f} "
             f"({len(failed)} failed / {len(results)} attempted ops)"]
    by_op = Counter(r.op.name for r in failed)
    for name, n in sorted(by_op.items()):
        reason = next(r.failure for r in failed if r.op.name == name)
        lines.append(f"    failed {name} x{n}: {reason}")
    totals, agree = cycle_totals(results)
    for metric, total in totals.items():
        if total:
            lines.append(f"  {metric} {total} count per cycle")
    if not agree:
        lines.append("  counts differ between repeats of an op!")
    return lines


def cycle_count(workload: str, seconds: float) -> int:
    """Whole cycles that fill a run of `seconds` on the reference host."""
    return max(MIN_CYCLES, round((seconds - FIXED_SECONDS[workload])
                                 / CYCLE_SECONDS[workload]))


def wall_lines(results: List[Result]):
    """({"wall_s_p50": s, "wall_s_tail": s}, printable lines) of the ops'
    wall times.  These are per-layer metrics, not end-to-end ones: on a
    shared 2-core host their spread across runs exceeds the largest bound
    the benchmark may set."""
    walls = [r.wall for r in results]
    p, tail_value = tail(walls)
    values = {"wall_s_p50": statistics.median(walls),
              "wall_s_tail": tail_value}
    return values, (f"  wall_s_p50 {values['wall_s_p50']:.4f} s\n"
                    f"  wall_s_tail p{p} of {len(walls)} samples "
                    f"{tail_value:.4f} s")


def end_to_end(harness: Harness, seconds: float, start: int,
               calib) -> Dict:
    """Time the cycles, with at least `SETUP_PASSES` cold set-up passes
    shared out before them, so the set-up samples spread over the run as
    the op samples do."""
    results, setups = [], []
    cycles = cycle_count(harness.workload, seconds)
    passes = max(SETUP_PASSES, cycles)
    began = time.perf_counter()
    for i in range(cycles):
        if time.perf_counter() - began > MAX_LOOP_SECONDS:
            break
        while len(setups) < passes * (i + 1) // cycles:
            setups.append(setup_pass(harness.workload))
        results += harness.cycle(start)
    calib.append(calibrate())
    loop_s = time.perf_counter() - began
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    harness.settle(results)
    setup_s = statistics.median(setups)
    print(f"workload {harness.workload}: {len(results) // len(harness.ops)} "
          f"cycles of {len(harness.ops)} ops in {loop_s:.1f} s, closed loop, "
          f"1 client; checks after the loop took "
          f"{time.perf_counter() - began - loop_s:.1f} s "
          f"({harness.verdicts_read} emitted-problem verdicts read from "
          f"{harness.verdicts.relative_to(ROOT)})")
    print(wall_lines(results)[1])
    print(f"  setup_s {setup_s:.4f} s (median of {len(setups)} cold "
          "set-up passes)")
    print(f"  peak_rss_mb {rss_mb:.1f} MB")
    print("\n".join(summary_lines(harness.workload, results)))
    print(f"  host.calib_s start {calib[0]:.4f} s, end {calib[1]:.4f} s")
    totals = cycle_totals(results)[0]
    metrics = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "encoding_atoms": (totals["encoding_atoms"], "count"),
        "encoding_effects": (totals["encoding_effects"], "count"),
    }
    return {**outcome(results), "metrics": {
        k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def layer_names() -> Dict[str, str]:
    """Every layer metric of a traced run -> its unit, in report order."""
    names = {"wall_s_p50": "s", "wall_s_tail": "s", "host.calib_s": "s",
             "trace.overhead_s": "s", "trace.overhead_ratio": "ratio"}
    names.update({m: "s" for m in SELF_TIME_METRICS.values()})
    names.update({m: "count" for m in COUNT_METRICS})
    names["pddl.emit_bytes"] = "bytes"
    names["pipeline.useful_stage_ratio"] = "ratio"
    # encoding_atoms and encoding_effects are end-to-end metrics; the
    # summary lines print them in a traced run too
    names.update({"fail_ratio": "ratio", "plan_steps": "count"})
    return names


def per_layer_names() -> Dict[str, str]:
    """The per-layer metrics of BENCHMARK.json -> unit: the layer metrics
    that a solve or translate run can move."""
    return {k: v for k, v in layer_names().items() if k not in VALIDATE_ONLY}


def instance_rows(workload: str) -> Dict[str, str]:
    """Per-instance row names of a workload -> unit."""
    rows = {}
    for op in WORKLOADS[workload]:
        rows[f"{workload}.{op.name}.wall_s"] = "s"
        for key in ROW_COUNTS[op.command]:
            rows[f"{workload}.{op.name}.{key.split('.')[-1]}"] = "count"
    return rows


def traced(harness: Harness, seconds: float, start: int, calib,
           seed: int) -> Dict:
    """Alternate untraced and traced instance cycles until a run of
    `seconds` is filled; per-layer numbers come from the traced cycles."""
    tracer = Tracer(harness.kp)
    untraced_cycles, traced_cycles, cycle_ops = [], [], []
    began = time.perf_counter()
    loop_seconds = seconds - FIXED_SECONDS[harness.workload]
    while not traced_cycles or time.perf_counter() - began < loop_seconds:
        untraced_cycles.append(harness.cycle(start))
        first = tracer.op_id + 1
        tracer.install()
        try:
            traced_cycles.append(harness.cycle(start, tracer))
        finally:
            tracer.uninstall()
        cycle_ops.append(range(first, tracer.op_id + 1))
    calib.append(calibrate())
    all_results = [r for c in untraced_cycles + traced_cycles for r in c]
    harness.settle(all_results)

    self_times = tracer.self_times()
    layer: Dict[str, List[float]] = {}
    counts: List[Counter] = []
    for ops in cycle_ops:
        total = Counter()
        for span, metric in SELF_TIME_METRICS.items():
            layer.setdefault(metric, []).append(
                sum(self_times.get((i, span), 0.0) for i in ops))
        for i in ops:
            total.update(tracer.counts[i])
        counts.append(total)
    repeat = all(c == counts[0] for c in counts)

    def cycle_wall(cycles):
        return statistics.median(sum(r.wall for r in c) for c in cycles)

    untraced_wall = cycle_wall(untraced_cycles)
    overhead = cycle_wall(traced_cycles) - untraced_wall
    w = harness.workload
    units = {**layer_names(), **instance_rows(w)}
    values: Dict[str, float] = {m: 0 for m in units}
    untraced = [r for c in untraced_cycles for r in c]
    walls, lines = wall_lines(untraced)
    values.update(walls)
    values["host.calib_s"] = statistics.mean(calib)
    values["trace.overhead_s"] = overhead
    values["trace.overhead_ratio"] = overhead / untraced_wall
    values.update({m: statistics.median(v) for m, v in layer.items()})
    values.update({m: counts[0][m] for m in COUNT_METRICS})
    attempted = counts[0]["pipeline.stages_attempted"]
    values["pipeline.useful_stage_ratio"] = (
        counts[0]["pipeline.stages_solved"] / attempted if attempted else 0)
    failed = sum(1 for r in all_results if r.failure)
    values["fail_ratio"] = failed / len(all_results)
    values.update(cycle_totals(all_results)[0])
    for op in harness.ops:
        values[f"{w}.{op.name}.wall_s"] = statistics.median(
            r.wall for c in untraced_cycles for r in c if r.op is op)
        row = next(r for r in traced_cycles[0] if r.op is op)
        op_id = next(i for i in cycle_ops[0]
                     if harness.op_names[i] == op.name)
        for key in ROW_COUNTS[op.command]:
            short = key.split(".")[-1]
            values[f"{w}.{op.name}.{short}"] = (
                row.counts[key] if key in row.counts
                else tracer.counts[op_id][key])

    OUT.mkdir(parents=True, exist_ok=True)
    trace_file = OUT / f"trace-{w}-seed{seed}.json"
    tracer.dump(trace_file, harness.op_names)
    print(f"workload {w} traced: {len(traced_cycles)} traced and "
          f"{len(untraced_cycles)} untraced cycles of {len(harness.ops)} ops;"
          f" {len(tracer.spans)} spans written to "
          f"{trace_file.relative_to(ROOT)}")
    print(f"  tracing overhead {overhead:.4f} s per cycle "
          f"({100 * values['trace.overhead_ratio']:.1f} % of "
          f"{untraced_wall:.4f} s untraced)")
    print(f"  counts repeat exactly across traced cycles: {repeat}")
    print("\n".join(summary_lines(w, all_results)))
    print(lines + " (untraced cycles)")
    for name, unit in units.items():
        if name not in walls:
            print(f"  {name} {values[name]:.6g} {unit}")
    return {**outcome(all_results), "metrics": {
        k: {"value": values[k], "unit": u}
        for k, u in per_layer_names().items()}}


def run_all(args) -> int:
    """Run every workload in its own process and tabulate the results."""
    docs = {}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"workload {workload} exited with {proc.returncode}")
            return proc.returncode or 1
        docs[workload] = json.loads(lines[-1])
    print(json.dumps(docs, sort_keys=True))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--cold-set-up", action="store_true",
                        help="time one cold set-up pass and exit")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if args.cold_set_up:
        cold_set_up(args.workload)
        return 0

    calib = [calibrate()]
    kp = load_kplan()
    work = OUT / f"work-{args.workload}-{os.getpid()}"
    harness = Harness(kp, args.workload, work, verdicts=OUT / "verdicts")
    try:
        warm_up(harness)
        harness.prepare_oracles()
        start = args.seed % len(harness.ops)
        if args.trace:
            doc = traced(harness, args.seconds, start, calib, args.seed)
        else:
            doc = end_to_end(harness, args.seconds, start, calib)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
