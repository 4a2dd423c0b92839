"""Relevance, relevant clauses, covers, width, mutexes, contexts."""

import itertools

import pytest

from kplan import (
    analysis,
    build_context,
    c_i,
    cover,
    mutex_set,
    neg,
    pos,
    prime_implicates,
    relevance,
    relevant_clauses,
    satisfies,
    spec_ki,
    width,
    width_of_literal,
)
from kplan import cli, pddl
from kplan.analysis import all_literals, masked, target_literals
from kplan.errors import InconsistentInit, WidthSearchCap
from kplan.model import conformant_problem

from conftest import (
    BENCH_INSTANCES,
    SMALL_INSTANCES,
    action,
    build_tiny,
    compiled_instance,
    one_dispose,
    random_suite,
    reachable_source_states,
    reference_cover,
    reference_mutex_set,
    reference_relevance,
    reference_width_of_literal,
    rule,
)


def test_relevance_direct_and_transitive(tiny):
    rel = relevance(tiny)
    # the literals in sorted order, a bit each; the complement of bit i
    # is bit i ^ 1
    assert rel.lits == all_literals(tiny.fluents)
    assert rel.bit == {L: 1 << i for i, L in enumerate(rel.lits)}
    bit = rel.bit
    # condition literal -> effect
    assert rel.reachable[pos("q")] & bit[pos("r")]
    assert rel.reachable[pos("q")] & bit[pos("p")]
    assert rel.reachable[pos("p")] & bit[neg("p")]
    # closed by the negation rule: ~p -> p because p -> ~p
    assert rel.reachable[neg("p")] & bit[pos("p")]
    # and reflexive
    assert rel.reachable[pos("r")] & bit[pos("r")]
    # nothing makes r relevant to q
    assert not rel.reachable[pos("r")] & bit[pos("q")]
    # the two tables are each other's transpose
    for L, Lp in itertools.product(rel.lits, repeat=2):
        assert bool(rel.reachable[L] & bit[Lp]) == \
            bool(rel.relevant[Lp] & bit[L]), (L, Lp)


def test_relevance_contrapositive_variant(tiny):
    rel = relevance(tiny)
    assert rel.reachable[neg("q")] & rel.bit[neg("r")]  # from q -> r
    assert rel.relevant[neg("r")] & rel.bit[neg("q")]


def _check_relevance_against_reference(problem):
    rel = relevance(problem)
    lits = all_literals(problem.fluents)
    assert rel.lits == lits
    for rule4 in ("standard", "contrapositive"):
        reachable, relevant = reference_relevance(problem, rule4)
        for L in lits:
            assert frozenset(masked(lits, rel.reachable[L])) == \
                reachable[L], (rule4, L)
            assert frozenset(masked(lits, rel.relevant[L])) == \
                relevant[L], (rule4, L)


def test_relevance_matches_reference_on_random_suite():
    for problem in random_suite(404, 150, max_fluents=8, max_actions=6):
        _check_relevance_against_reference(problem)


@pytest.mark.parametrize("family,params", BENCH_INSTANCES,
                         ids=["-".join(map(str, (f, *p)))
                              for f, p in BENCH_INSTANCES])
def test_relevance_matches_reference_on_generated(family, params):
    _check_relevance_against_reference(compiled_instance(family, params)[0])


def test_ci_unknowns_and_relevant_clauses(tiny):
    ctx = build_context(tiny)
    # p and r are unknown; q is a known unit
    assert set(ctx.ci) == {frozenset([pos("p"), neg("p")]),
                           frozenset([pos("r"), neg("r")])}
    rcs = relevant_clauses(ctx.ci, pos("p"), ctx.rel)
    assert set(rcs.clauses) == {frozenset([pos("p"), neg("p")])}
    # nothing makes ~r relevant to r, so r's tautology clause is excluded
    rcs_r = relevant_clauses(ctx.ci, pos("r"), ctx.rel)
    assert rcs_r.clauses == ()


def test_cover_minimal_hitting_sets():
    pi = prime_implicates([frozenset([pos("q")]),
                           frozenset([pos("p"), pos("r")])],
                          ["p", "q", "r"])
    covers = cover([frozenset([pos("p"), pos("r")])], pi)
    assert set(covers) == {frozenset([pos("p")]), frozenset([pos("r")])}
    # I-inconsistent selections are pruned: ~q cannot appear in a cover
    covers2 = cover([frozenset([pos("p"), neg("q")])], pi)
    assert set(covers2) == {frozenset([pos("p")])}


def test_cover_matches_reference_on_random_suite():
    """Every subset of size <= 3 of C_I*(L), for every literal."""
    for problem in random_suite(505, 150, max_fluents=8, max_actions=6):
        ctx = build_context(problem)
        for L in all_literals(problem.fluents):
            pool = ctx.relevant_clause_set(L).extended
            for size in range(4):
                for C in itertools.combinations(pool, size):
                    assert cover(C, ctx.pi) == reference_cover(C, ctx.pi), C


def test_satisfies_uses_closures():
    pi = prime_implicates([frozenset([pos("p"), pos("r")])], ["p", "r"])
    C = [frozenset([pos("p"), pos("r")])]
    assert satisfies([frozenset([pos("p")]), frozenset([pos("r")])], C, pi)
    # the closure of ~p entails r, so even the "other" tag hits the clause
    assert satisfies([frozenset([neg("p")])], C, pi)
    assert not satisfies([frozenset()], C, pi)


def test_width_of_literal_and_problem(tiny):
    ctx = build_context(tiny)
    w, witness = width_of_literal(ctx.ci, pos("p"), ctx.rel, ctx.pi)
    assert w == 1
    assert witness == (frozenset([neg("p"), pos("p")]),)
    assert width(tiny) == 1
    with pytest.raises(WidthSearchCap):
        width_of_literal(ctx.ci, pos("p"), ctx.rel, ctx.pi, cap=0)


def _check_uncapped_width(problem):
    """Without a cap, the width search finds a witness for every target
    literal: at most one clause per fluent of C_I(L), whose cover
    satisfies C_I(L)."""
    ctx = build_context(problem)
    for L in target_literals(problem):
        rcs = ctx.relevant_clause_set(L)
        w, witness = width_of_literal(ctx.ci, L, ctx.rel, ctx.pi)
        assert w == len(witness) <= len({l.fluent for c in rcs.clauses
                                         for l in c}), L
        if witness:
            assert satisfies(cover(witness, ctx.pi), rcs.clauses, ctx.pi)
        else:
            assert not rcs.clauses


def test_uncapped_width_search_finds_a_witness_on_random_suite():
    for seed in range(1, 11):
        for problem in random_suite(seed, 40):
            _check_uncapped_width(problem)


@pytest.mark.parametrize("family,params", BENCH_INSTANCES,
                         ids=["-".join(map(str, (f, *p)))
                              for f, p in BENCH_INSTANCES])
def test_uncapped_width_search_finds_a_witness_on_generated(family, params):
    _check_uncapped_width(compiled_instance(family, params)[0])


# --- the search by components against the reference search -----------------

CAPS = (0, 1, 2, None)


def _outcome(search, ctx, L, cap):
    """(width, witness), or None when the search raises WidthSearchCap."""
    try:
        return search(ctx.ci, L, ctx.rel, ctx.pi, cap=cap)
    except WidthSearchCap:
        return None


def _check_width_cache(problem):
    """Every cap in both orders, capped searches first and uncapped ones
    first, on one context each: the search by components gives the width
    and witness of the reference search over all of C_I*(L), whatever the
    context was asked before."""
    targets = target_literals(problem)
    fresh = build_context(problem)
    want = {(L, cap): _outcome(reference_width_of_literal, fresh, L, cap)
            for L in targets for cap in CAPS}
    for order in (CAPS, CAPS[::-1]):
        ctx = build_context(problem)
        for cap in order:
            for L in targets:
                assert _outcome(width_of_literal, ctx, L, cap) == \
                    want[L, cap], (L, cap, order)


def test_width_cache_matches_a_fresh_search_on_random_suites():
    for seed in range(1, 6):
        for problem in random_suite(seed, 40):
            _check_width_cache(problem)


@pytest.mark.parametrize("family,params", SMALL_INSTANCES,
                         ids=["-".join(map(str, (f, *p)))
                              for f, p in SMALL_INSTANCES])
def test_width_cache_matches_a_fresh_search_on_generated(family, params):
    _check_width_cache(compiled_instance(family, params)[0])


@pytest.mark.parametrize("k,m", [(3, 2), (3, 3), (4, 3)])
def test_width_matches_a_fresh_search_on_one_dispose(k, m):
    # handempty's relevant clauses lie in m components, one per object
    _check_width_cache(pddl.load(*one_dispose(k, m)))


def _count_covers(monkeypatch):
    """The clause sets the width search takes covers of, in order; the
    1,001st call fails the test, so a search over whole clause sets
    stops early."""
    covered = []
    real_cover = analysis.cover

    def counting_cover(C, pi):
        covered.append(C)
        if len(covered) > 1000:
            pytest.fail("the width search took over 1,000 covers")
        return real_cover(C, pi)

    monkeypatch.setattr(analysis, "cover", counting_cover)
    return covered


def test_sortnet_searches_one_fluent_at_a_time(monkeypatch):
    """sortnet-7's inputs share no prime implicate: each of the six
    targets with relevant clauses searches seven one-fluent components,
    and each finds its one tautology at once.  A search over the whole
    clause set tests its 127 subsets."""
    problem = compiled_instance("sortnet", (7,))[0]
    ctx = build_context(problem)
    covered = _count_covers(monkeypatch)
    report = cli._width_report(problem, ctx)
    assert report["width"] == 7
    assert len(covered) == 42 and all(len(C) == 1 for C in covered)


def test_one_dispose_searches_one_object_at_a_time(monkeypatch):
    """On 1-dispose-4-4 the 44 clauses of C_I*(handempty) lie in four
    components, one object's oneof group each: the report tests 40
    covers, where a search over all 44 takes tens of seconds."""
    problem = pddl.load(*one_dispose(4, 4))
    ctx = build_context(problem)
    covered = _count_covers(monkeypatch)
    report = cli._width_report(problem, ctx)
    assert report["width"] == 4
    assert len(covered) == 40
    assert report["literals"]["handempty"] == {
        "width": 4,
        "witness": [[f"obj-at-o{j}-c{i}" for i in range(1, 5)]
                    for j in range(1, 5)]}


def test_width_report_reuses_the_searches_of_spec_ki(monkeypatch):
    """spec_ki hands on the (width, witness) of each target of width at
    most its bound, as an uncapped search finds them, and the report
    built from them is the one that searches every target."""
    for family, params in SMALL_INSTANCES + [("bomb", (16, 16))]:
        problem = compiled_instance(family, params)[0]
        ctx = build_context(problem)
        uncapped = {L: width_of_literal(ctx.ci, L, ctx.rel, ctx.pi)
                    for L in target_literals(problem)}
        full = cli._width_report(problem, ctx)
        for i in (0, 1, 2):
            found = {}
            spec_ki(ctx, i, widths=found)
            assert found == {L: w for L, w in uncapped.items() if w[0] <= i}
            assert cli._width_report(problem, ctx, found) == full
    # bomb-16-16's 32 targets have width <= 1: ki:1 searches none again
    found = {}
    spec_ki(ctx, 1, widths=found)
    searched = []
    monkeypatch.setattr(cli, "width_of_literal",
                        lambda *args: searched.append(args))
    cli._width_report(problem, ctx, found)
    assert len(found) == 32 and not searched


def test_width_zero_for_classical_input():
    problem = conformant_problem(
        ["p", "g"], [[pos("p")], [neg("g")]],
        [action("a", rules=[rule([pos("p")], pos("g"))])], [pos("g")])
    assert width(problem) == 0


def test_target_literals(tiny):
    assert set(target_literals(tiny)) == {pos("p"), pos("r")}
    assert set(target_literals(tiny, include_all=True)) == set(
        all_literals(tiny.fluents))


def test_mutex_complementary_pairs(tiny):
    mx = mutex_set(tiny)
    for f in tiny.fluents:
        assert mx.mutex(pos(f), neg(f))


def pairs_of(mx, problem):
    """The mutex pairs, each once, as ``reference_mutex_set`` gives them."""
    return frozenset(frozenset((L, Lp)) for L in all_literals(problem.fluents)
                     for Lp in mx.mutex_with(L))


def test_mutex_soundness_on_random_suite():
    """No exhaustively reachable state may contain a mutex pair, including
    the pairs that the plain fixpoint (implication from C alone) lacks."""
    beyond_plain = 0
    for problem in random_suite(101, 25) + random_suite(303, 40):
        pi = prime_implicates(problem.init, problem.fluents)
        pairs = pairs_of(mutex_set(problem, pi), problem)
        for s in reachable_source_states(problem):
            for pair in pairs:
                assert not pair <= s, (problem, sorted(pair))
        beyond_plain += bool(
            pairs - reference_mutex_set(problem, pi, strengthened=False))
    assert beyond_plain > 0


def test_strengthened_mutex_is_superset_on_random_suite():
    for problem in random_suite(202, 10):
        pi = prime_implicates(problem.init, problem.fluents)
        assert reference_mutex_set(problem, pi, strengthened=False) \
            <= pairs_of(mutex_set(problem, pi), problem)


def _check_against_reference(problem):
    pi = prime_implicates(problem.init, problem.fluents)
    mx = mutex_set(problem, pi)
    reference = reference_mutex_set(problem, pi, strengthened=True)
    assert pairs_of(mx, problem) == reference
    # sorted, as ktm emits one merge effect per partner in this order
    for L in all_literals(problem.fluents):
        partners = {other for p in reference if L in p for other in p - {L}}
        assert mx.mutex_with(L) == sorted(partners), L
        assert all(mx.mutex(L, Lp) == (Lp in partners)
                   for Lp in all_literals(problem.fluents)), L


def test_mutex_set_matches_reference_on_random_suite():
    for problem in random_suite(303, 60):
        _check_against_reference(problem)


def test_mutex_pair_kept_by_a_rule_with_mutex_condition():
    # {x, y} survives only because the rule adding y has the condition
    # {p, q}, which is itself mutex (static and initially exclusive)
    problem = conformant_problem(
        ["p", "q", "x", "y"],
        [[neg("p"), neg("q")], [neg("x"), neg("y")]],
        [action("a", rules=[rule([], pos("x")), rule([], neg("y")),
                            rule([pos("p"), pos("q")], pos("y"))])],
        [pos("x")])
    assert mutex_set(problem).mutex(pos("x"), pos("y"))
    _check_against_reference(problem)


@pytest.mark.parametrize("family,params", BENCH_INSTANCES,
                         ids=["-".join(map(str, (f, *p)))
                              for f, p in BENCH_INSTANCES])
def test_mutex_set_matches_reference_on_generated(family, params):
    _check_against_reference(compiled_instance(family, params)[0])


def test_mutex_set_matches_reference_on_nondet_copies():
    # the pipeline's second and third oneof copies add hidden fluents
    for copies in (2, 3):
        _check_against_reference(
            compiled_instance("sgripper", (2,), copies)[0])


def test_build_context_rejects_unsat_init():
    problem = conformant_problem(
        ["p"], [[pos("p")], [neg("p")]], [action("a")], [pos("p")])
    with pytest.raises(InconsistentInit):
        build_context(problem)


def test_ci_of_fully_known_init_is_empty():
    pi = prime_implicates([frozenset([pos("p")]), frozenset([neg("q")])],
                          ["p", "q"])
    assert c_i(pi) == ()
