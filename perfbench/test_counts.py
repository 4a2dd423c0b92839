"""Checks of the benchmark itself.

    python3 -m pytest perfbench/test_counts.py

The counts a traced run reports (expansions, generated states, `hadd`
calls, atoms, effects, states checked, plan steps) must repeat exactly
across processes and across PYTHONHASHSEED values, so that a change can
cite them as evidence.  The oracle must agree with the known answers of
the validate plans and judge the emitted translate problems, and
BENCHMARK.json must list exactly the per-layer metrics a traced run
reports.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import run
from tracing import Tracer
from workloads import VALIDATE, Op, _bubble_network, _ring_plan

HERE = Path(__file__).resolve().parent

# small instances of every front end: search, the CNF-goal ladder, the
# oneof copies, ks0 and kmodels translation, full and early-exit checks
SMALL = {
    "solve": (Op("square-center-5", "square-center", (5,)),
              Op("sortnet-4", "sortnet", (4,)),
              Op("sgripper-2", "sgripper", (2,))),
    "translate": (Op("sortnet-6", "sortnet", (6,), scheme="kmodels"),
                  Op("disjtoy-6", "disjtoy", (6,), scheme="ks0")),
    "validate": (Op("ring-3-valid", "ring", (3,), plan=_ring_plan(3),
                    expect_valid=True),
                 Op("ring-3-invalid", "ring", (3,), plan=_ring_plan(3)[:-2],
                    expect_valid=False)),
}

COUNTED = ("plan_steps", "atoms", "effects", "states_checked",
           "planner.expanded", "planner.generated", "planner.hadd_calls",
           "translate.atoms", "translate.effects", "verify.states_checked")


def emit_counts():
    """Run every SMALL op once under the tracer; print its counts."""
    kp = run.load_kplan()
    out = {}
    with tempfile.TemporaryDirectory(dir=run.ROOT / "perfbench") as tmp:
        for workload, ops in SMALL.items():
            harness = run.Harness(kp, workload, Path(tmp) / workload, ops)
            harness.prepare()
            harness.prepare_oracles()
            tracer = Tracer(kp)
            tracer.install()
            try:
                for op in ops:
                    tracer.op_id += 1
                    result = harness.run(op)
                    counts = {**result.counts, **tracer.counts[tracer.op_id]}
                    out[f"{workload}.{op.name}"] = {
                        k: counts[k] for k in COUNTED if k in counts}
            finally:
                tracer.uninstall()
    print(json.dumps(out, sort_keys=True))


def _counts_with_hash_seed(seed: int) -> dict:
    env = {**os.environ, "PYTHONHASHSEED": str(seed)}
    code = "import test_counts; test_counts.emit_counts()"
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=HERE, env=env,
        stdout=subprocess.PIPE, text=True, timeout=170, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_counts_repeat_across_processes_and_hash_seeds():
    first = _counts_with_hash_seed(0)
    assert first["solve.square-center-5"]["planner.expanded"] > 0
    assert first["translate.sortnet-6"]["translate.atoms"] > 0
    assert first["validate.ring-3-valid"]["states_checked"] == 3 * 4 ** 3
    for seed in (0, 1, 2):
        assert _counts_with_hash_seed(seed) == first


def test_oracle_agrees_with_known_answers():
    kp = run.load_kplan()
    for op in VALIDATE:
        problem = kp.pddl.load(*kp.generators.generate(op.family, op.params))
        judged = run.SourceOracle(problem).check(op.plan)
        assert judged.valid == op.expect_valid, (op.name, judged.reason)
    sortnet = run.SourceOracle(
        kp.pddl.load(*kp.generators.generate("sortnet", (5,))))
    assert sortnet.check(_bubble_network(5)).initial_states == 32
    # the compiled goal steps are dropped and the source goal is checked
    steps = ("cmp-1-5", "cmp-1-4", "cmp-2-3", "eval-goal-c1", "cmp-3-4",
             "eval-goal-c2", "cmp-4-5", "eval-goal-c3", "cmp-1-2",
             "eval-goal-c0")
    assert sortnet.check(steps).reason == \
        "goal fails from 7 of 32 initial states"
    assert not sortnet.check(("no-such-action",)).valid


def test_emitted_problems_are_judged_by_the_oracle(tmp_path):
    kp = run.load_kplan()
    ops = (Op("disjtoy-6", "disjtoy", (6,), scheme="ks0"),
           Op("sortnet-4", "sortnet", (4,), scheme="kmodels"))
    harness = run.Harness(kp, "translate", tmp_path, ops)
    harness.prepare()
    harness.prepare_oracles()
    results = [harness.run(op) for op in ops]
    assert [r.failure for r in results] == [None, None]
    harness.settle(results)
    assert results[0].failure is None
    # the CNF-goal defect: a plan of the sortnet encoding leaves inputs
    # unsorted in the source problem
    assert results[1].failure.startswith(
        "oracle rejects a plan of the emitted problem: goal fails from")


def test_benchmark_json_lists_every_per_layer_metric():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    listed = {m["name"]: m["unit"] for m in doc["per_layer"]}
    assert listed == run.per_layer_names()
