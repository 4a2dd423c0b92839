"""Acceptance criteria.

Each test covers one numbered criterion and prints a single
"ACCEPTANCE n: PASS/FAIL" line (visible with -s or on failure); the
verbose test ids double as one pass/fail line per criterion.
"""

import itertools
import random
import time

import pytest

from kplan import (
    Merge,
    Plan,
    PipelineConfig,
    SolveStatus,
    apply,
    belief_bfs,
    bfs_optimal,
    build_basis,
    build_context,
    cnf_goal_compile,
    conformant_check,
    initial_states,
    ktm,
    mutex_set,
    neg,
    pipeline_solve,
    pos,
    prime_implicates,
    restrict,
    run_plan,
    solve,
    spec_k0,
    spec_ki,
    spec_kmodels,
    spec_ks0,
    width,
    zero_approx_run,
)
from kplan import generators, pddl
from kplan.errors import InconsistentInit, WidthSearchCap
from kplan.translate import atom_name, merge_action_name

from conftest import (
    TINY_BAD,
    TINY_PLAN,
    all_sequences,
    build_pickdrop,
    build_tiny,
    classical_accepts,
    is_conformant,
    random_suite,
    reachable_classical_states,
    reachable_source_states,
)
from test_pi import oracle_prime_implicates, random_cnf


def _report(num: int, desc: str, ok: bool):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"acceptance criterion {num} failed: {desc}"


def load_generated(family, *params):
    domain_text, problem_text = generators.generate(family, params)
    return pddl.load(domain_text, problem_text)


def test_criterion_01_basic_translation_worked_example():
    problem = build_tiny()
    K = ktm(problem, spec_k0())
    ok = classical_accepts(K, TINY_PLAN)
    ok = ok and not classical_accepts(K, TINY_BAD)
    ok = ok and conformant_check(problem, TINY_PLAN).valid
    verdict = conformant_check(problem, TINY_BAD)
    ok = ok and not verdict.valid
    # the initial states with p true are counterexamples to the prefix
    p_true = [s for s in initial_states(problem) if pos("p") in s]
    ok = ok and p_true and all(
        not run_plan(restrict(problem, s), Plan(TINY_BAD)).achieved_goal
        for s in p_true)
    _report(1, "two-step plan accepted, one-step prefix refuted with a "
               "p-true counterexample", bool(ok))


def test_criterion_02_tagged_translation_worked_example():
    problem, spec, t1, t2 = build_pickdrop()
    K = ktm(problem, spec)
    a = atom_name
    expected_init = {
        a(neg("hold")), a(neg("hold"), t1), a(neg("hold"), t2),
        a(neg("at-l3")), a(neg("at-l3"), t1), a(neg("at-l3"), t2),
        a(pos("at-l1"), t1), a(neg("at-l2"), t1),
        a(pos("at-l2"), t2), a(neg("at-l1"), t2),
    }
    ok = {l.fluent for l in K.init} == expected_init and len(K.init) == 10
    m3 = merge_action_name(Merge(frozenset([t1, t2]), pos("at-l3")))
    mh = merge_action_name(Merge(frozenset([t1, t2]), pos("hold")))
    pi1 = ("pick-l1", "drop-l3", "pick-l2", "drop-l3", m3)
    pi2 = ("pick-l1", "pick-l2", mh, "drop-l3")
    ok = ok and classical_accepts(K, pi1)
    ok = ok and not classical_accepts(K, pi2)
    # conditional-knowledge trace along pi1, one row per time step
    rows = [
        (None, (a(pos("at-l1"), t1), a(pos("at-l2"), t2))),
        ("pick-l1", (a(pos("hold"), t1), a(pos("at-l2"), t2))),
        ("drop-l3", (a(pos("at-l3"), t1), a(pos("at-l2"), t2))),
        ("pick-l2", (a(pos("at-l3"), t1), a(pos("hold"), t2))),
        ("drop-l3", (a(pos("at-l3"), t1), a(pos("at-l3"), t2))),
        (m3, (a(pos("at-l3")),)),
    ]
    s = K.initial_state()
    for step, atoms in rows:
        if step is not None:
            s = apply(s, K.action_by_name(step))
        ok = ok and all(pos(x) in s for x in atoms)
    _report(2, "listed initial atoms reproduced, case-analysis plan solves, "
               "premature merge fails, 6-row trace matches", bool(ok))


def test_criterion_03_width_table():
    start = time.monotonic()
    expectations = [
        (("safe", (10,)), 1),
        (("bomb", (4, 4)), 1),
        (("ring", (4,)), 1),
        (("square-center", (3,)), 1),
        (("corners-square", (4,)), 1),
        (("sortnet", (3,)), 3),
        (("sortnet", (4,)), 4),
        (("sortnet", (5,)), 5),
    ]
    ok = True
    for (family, params), expected in expectations:
        problem = cnf_goal_compile(load_generated(family, *params))
        got = width(problem)
        ok = ok and got == expected
    _report(3, "benchmark families report the expected conformant widths "
               f"({time.monotonic() - start:.1f}s)", ok)


def test_criterion_04_forced_plan_lengths():
    start = time.monotonic()
    ok = True
    for family, params, expected in (("safe", (10,), 10),
                                     ("safe", (30,), 30),
                                     ("safe", (50,), 50),
                                     ("bomb", (20, 20), 20)):
        problem = load_generated(family, *params)
        ctx = build_context(problem)
        K = ktm(problem, spec_ki(ctx, 1), ctx, optimized=True)
        result = solve(K)
        ok = ok and result.status is SolveStatus.SOLVED
        stripped = result.plan.stripped()
        ok = ok and len(stripped) == expected
        ok = ok and conformant_check(problem, stripped).valid
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 60.0
    _report(4, f"forced plan lengths 10/30/50/20 validated in "
               f"{elapsed:.1f}s (< 60s)", ok)


def test_criterion_05_small_instances_end_to_end():
    corners = load_generated("corners-square", 4)
    ok = len(initial_states(corners)) == 4
    plan, report = pipeline_solve(corners)
    ok = ok and report["verdict"]["valid"]
    toy = load_generated("disjtoy", 6)
    plan, report = pipeline_solve(toy)
    ok = ok and report["verdict"]["valid"]
    _report(5, "corners-square-4 (4 initial states) and the 6-disjunct toy "
               "solved with validated plans", ok)


def _translations(problem, ctx):
    yield "k0", ktm(problem, spec_k0(), ctx)
    yield "ki:1", ktm(problem, spec_ki(ctx, 1), ctx)
    yield "ki:2", ktm(problem, spec_ki(ctx, 2), ctx)
    yield "kmodels", ktm(problem, spec_kmodels(ctx), ctx)
    yield "ks0", ktm(problem, spec_ks0(ctx), ctx)


def test_criterion_06_soundness_suite():
    violations = []
    found = 0
    for problem in random_suite(60601, 200):
        ctx = build_context(problem)
        for name, K in _translations(problem, ctx):
            plan = bfs_optimal(K, depth_cap=6, max_states=20_000)
            if plan is None:
                continue
            found += 1
            if not conformant_check(problem, plan.stripped()).valid:
                violations.append((name, problem))
    _report(6, f"200 random problems, 5 translations: {found} classical "
               f"plans found, {len(violations)} conformance violations",
            not violations and found > 0)


def test_criterion_07_completeness_suite():
    violations = []
    checked = 0
    for problem in random_suite(70707, 80):
        try:
            w = width(problem)
        except WidthSearchCap:
            continue
        if w > 2:
            continue
        oracle = belief_bfs(problem, depth_cap=5)
        if oracle is None:
            continue
        length = len(oracle.steps)
        ctx = build_context(problem)
        for i in (0, 1, 2):
            if w > i:
                continue
            K = ktm(problem, spec_ki(ctx, i), ctx)
            plan = bfs_optimal(K, depth_cap=length, max_states=100_000)
            checked += 1
            if plan is None or plan.stripped_length != length:
                violations.append((i, problem))
    _report(7, f"bounded-width completeness: {checked} (problem, bound) "
               f"pairs, {len(violations)} misses", not violations
            and checked > 0)


def test_criterion_08_weak_semantics_equivalence():
    discrepancies = []
    for problem in random_suite(80808, 50, max_fluents=4, max_actions=3):
        K = ktm(problem, spec_k0())
        names = [a.name for a in problem.actions]
        for seq in all_sequences(names, 4):
            strong = classical_accepts(K, seq)
            weak = zero_approx_run(problem, seq).valid
            if strong != weak:
                discrepancies.append((problem, seq))
    _report(8, "basic translation and 3-valued progression accept exactly "
               f"the same sequences ({len(discrepancies)} discrepancies)",
            not discrepancies)


def test_criterion_09_prime_implicate_oracle():
    rng = random.Random(90909)
    mismatches = 0
    for _ in range(100):
        nvars = rng.randint(2, 6)
        variables = [f"v{i}" for i in range(nvars)]
        cnf = random_cnf(rng, variables)
        expected = oracle_prime_implicates(cnf, variables)
        if expected is None:
            try:
                prime_implicates(cnf, variables)
                mismatches += 1
            except InconsistentInit:
                pass
        elif prime_implicates(cnf, variables).clauses != expected:
            mismatches += 1
    _report(9, f"resolution-based prime implicates match the truth-table "
               f"oracle on 100 CNFs ({mismatches} mismatches)",
            mismatches == 0)


def test_criterion_10_basis_sufficiency():
    ok = True
    for n in (3, 4, 5):
        problem = load_generated("disjtoy", n)
        ctx = build_context(problem)
        spec = spec_ki(ctx, 1)
        basis = build_basis(problem, spec, ctx)
        ok = ok and len(basis.states) == n
        ok = ok and len(initial_states(problem)) == 2 ** n - 1
        names = [a.name for a in problem.actions]
        for seq in all_sequences(names, 3):
            on_basis = all(
                run_plan(restrict(problem, s), Plan(seq)).achieved_goal
                for s in basis.states)
            if on_basis and not is_conformant(problem, seq):
                ok = False
    _report(10, "disjunction toys: n basis states versus 2^n-1 initial "
                "states; basis-conforming sequences conform globally", ok)


def test_criterion_11_mutex_and_translation_consistency():
    mutex_violations = 0
    knowledge_violations = 0
    for problem in random_suite(111111, 40, max_fluents=5, max_actions=4):
        mx = mutex_set(problem)
        for s in reachable_source_states(problem):
            if any(mx.mutex(L, Lp) for L in s for Lp in s):
                mutex_violations += 1
        ctx = build_context(problem)
        for spec in (spec_ki(ctx, 1), spec_kmodels(ctx)):
            K = ktm(problem, spec, ctx)
            pairs = [
                (atom_name(pos(f), t), atom_name(neg(f), tp))
                for f in problem.fluents
                for t, tp in itertools.product(spec.tags, repeat=2)
                if ctx.pi.tag_consistent(frozenset(t | tp))
            ]
            for s in reachable_classical_states(K, max_states=5_000):
                true_atoms = {l.fluent for l in s if l.positive}
                for x, y in pairs:
                    if x in true_atoms and y in true_atoms:
                        knowledge_violations += 1
    _report(11, "no reachable state violates a reported mutex "
                f"({mutex_violations}); no reachable translated state "
                "holds contradictory knowledge under compatible tags "
                f"({knowledge_violations})",
            mutex_violations == 0 and knowledge_violations == 0)


def test_criterion_12_sortnet_ladder():
    problem = load_generated("sortnet", 3)
    plan, report = pipeline_solve(problem)
    stages = report["stages"]
    ok = stages[0]["scheme"] == "ki:1"
    ok = ok and stages[0]["status"] == "unsolvable"
    ok = ok and stages[-1]["scheme"] == "kmodels"
    ok = ok and stages[-1]["status"] == "solved"
    ok = ok and report["verdict"]["valid"]
    _report(12, "sortnet-3: bounded scheme provably unsolvable, model-based "
                "scheme solves with a validated plan", ok)


def test_criterion_13_nondeterministic_gripper():
    start = time.monotonic()
    problem = load_generated("sgripper", 2)
    plan, report = pipeline_solve(problem, PipelineConfig(max_copies=3))
    elapsed = time.monotonic() - start
    solved = [s for s in report["stages"] if s["status"] == "solved"]
    ok = report["nondet"]
    ok = ok and solved and solved[-1]["copies"] == 1
    ok = ok and report["verdict"]["valid"]
    # the verdict quantifies over every hidden-selector assignment
    ok = ok and report["verdict"]["states_checked"] >= 2
    ok = ok and elapsed < 30.0
    _report(13, f"single-copy determinization with resets solved and "
                f"validated in {elapsed:.1f}s (< 30s)", bool(ok))
