"""Shared fixtures: worked-example problems, a seeded random-problem
generator, and small brute-force helpers used by several test modules."""

from __future__ import annotations

import heapq
import itertools
import random
import time
from collections import deque
from typing import (Dict, FrozenSet, Iterable, Iterator, List, Optional,
                    Sequence, Set, Tuple)

import pytest

from kplan import (
    ConformantProblem,
    InconsistentResult,
    Literal,
    Merge,
    Plan,
    action,
    apply,
    conformant_problem,
    make_spec,
    neg,
    pos,
    restrict,
    rule,
    run_plan,
)
from kplan import analysis, generators, pddl
from kplan.analysis import (Context, all_literals, build_context, cover,
                            satisfies, target_literals)
from kplan.errors import (CapExceeded, InvalidSpec, TooManyInitialStates,
                          UnsupportedFeature)
from kplan.model import (Action, ClassicalProblem, Clause, Rule, State,
                         lits_consistent, sorted_lits)
from kplan.pi import EMPTY_TAG, Tag, prime_implicates
from kplan.planner import INF, SolveResult, SolveStatus
from kplan.translate import (
    STATIC_ACTION_NAME,
    TranslationSpec,
    atom_name,
    cnf_goal_compile,
    merge_action_name,
    nondet_compile,
)
from kplan.verify import DEFAULT_STATE_CAP, initial_states


# --- tiny worked example ------------------------------------------------------

def build_tiny() -> ConformantProblem:
    """Three fluents, one known; the two-step plan works, the one-step
    prefix does not (it deletes p on the branch where p starts true)."""
    return conformant_problem(
        ["p", "q", "r"],
        [[pos("q")]],
        [
            action("a", rules=[rule([pos("q")], pos("r")),
                               rule([pos("p")], neg("p"))]),
            action("b", rules=[rule([pos("q")], pos("p"))]),
        ],
        [pos("p"), pos("r")])


@pytest.fixture
def tiny() -> ConformantProblem:
    return build_tiny()


TINY_PLAN = ("a", "b")
TINY_BAD = ("a",)


# --- pick/drop worked example ---------------------------------------------------

def build_pickdrop():
    """One-hand robot among three locations; item location unknown between
    l1 and l2.  Returns the problem plus the two-tag spec used by the
    translation walk-through tests."""
    acts = []
    for l in ("l1", "l2", "l3"):
        acts.append(action(f"pick-{l}", rules=[
            rule([neg("hold"), pos(f"at-{l}")], pos("hold")),
            rule([neg("hold"), pos(f"at-{l}")], neg(f"at-{l}")),
            rule([pos("hold")], neg("hold")),
            rule([pos("hold")], pos(f"at-{l}")),
        ]))
        acts.append(action(f"drop-{l}", rules=[
            rule([pos("hold")], neg("hold")),
            rule([pos("hold")], pos(f"at-{l}")),
        ]))
    problem = conformant_problem(
        ["hold", "at-l1", "at-l2", "at-l3"],
        [[neg("hold")], [pos("at-l1"), pos("at-l2")],
         [neg("at-l1"), neg("at-l2")], [neg("at-l3")]],
        acts, [pos("at-l3")])
    t1 = frozenset([pos("at-l1")])
    t2 = frozenset([pos("at-l2")])
    tags = frozenset([t1, t2])
    spec = make_spec([t1, t2],
                     [Merge(tags, pos("hold")), Merge(tags, pos("at-l3"))],
                     "manual", trusted=True)
    return problem, spec, t1, t2


@pytest.fixture
def pickdrop():
    return build_pickdrop()


# --- seeded random problem suite ------------------------------------------------

def random_problem(rng: random.Random, max_fluents: int = 6,
                   max_actions: int = 5) -> ConformantProblem:
    """A small consistent conformant problem.

    Within one action all rule heads are on distinct fluents, so applying
    an action can never add a complementary pair; this keeps progression
    total and keeps the basic translation in step with the weak semantics.
    """
    n = rng.randint(3, max_fluents)
    fluents = [f"f{i}" for i in range(1, n + 1)]
    k_units = rng.randint(1, 2)
    unit_fs = rng.sample(fluents, k_units)
    init: List[List[Literal]] = [[Literal(f, rng.random() < 0.7)]
                                 for f in unit_fs]
    rest = [f for f in fluents if f not in unit_fs]
    for _ in range(rng.randint(0, min(2, 4 - k_units))):
        if len(rest) < 2:
            break
        size = rng.randint(2, min(3, len(rest)))
        init.append([Literal(f, rng.random() < 0.6)
                     for f in rng.sample(rest, size)])
    actions = []
    for ai in range(rng.randint(1, max_actions)):
        heads = rng.sample(fluents, rng.randint(1, min(3, n)))
        rules = []
        for hf in heads:
            head = Literal(hf, rng.random() < 0.5)
            others = [f for f in fluents if f != hf]
            cond_fs = rng.sample(others, min(rng.randint(0, 2), len(others)))
            rules.append(rule([Literal(f, rng.random() < 0.5)
                               for f in cond_fs], head))
        pre = []
        if rng.random() < 0.3:
            pre = [Literal(rng.choice(fluents), rng.random() < 0.5)]
        actions.append(action(f"a{ai}", pre, rules))
    goal = [Literal(f, rng.random() < 0.6)
            for f in rng.sample(fluents, rng.randint(1, 2))]
    return conformant_problem(fluents, init, actions, goal)


def random_suite(seed: int, count: int, **kwargs) -> List[ConformantProblem]:
    rng = random.Random(seed)
    return [random_problem(rng, **kwargs) for _ in range(count)]


# --- brute-force helpers --------------------------------------------------------

def all_sequences(names: Sequence[str], max_len: int
                  ) -> Iterator[Tuple[str, ...]]:
    """Every action-name sequence of length 0..max_len."""
    for length in range(max_len + 1):
        yield from itertools.product(names, repeat=length)


def classical_accepts(K: ClassicalProblem, steps: Iterable[str]) -> bool:
    result = run_plan(K, Plan.for_problem(steps, K))
    return result.applicable and result.achieved_goal


def reachable_source_states(problem: ConformantProblem,
                            max_states: int = 10_000) -> Set[State]:
    """All states reachable from some possible initial state by applicable
    deterministic actions (exhaustive closure)."""
    frontier = list(initial_states(problem))
    seen: Set[State] = set(frontier)
    while frontier:
        s = frontier.pop()
        for a in problem.actions:
            if not a.preconditions <= s:
                continue
            nxt = apply(s, a)
            if nxt not in seen:
                if len(seen) >= max_states:
                    raise RuntimeError("state-space cap exceeded")
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def reachable_classical_states(K: ClassicalProblem,
                               max_states: int = 20_000) -> Set[State]:
    """All complete states reachable in a classical problem."""
    start = K.initial_state()
    frontier = [start]
    seen: Set[State] = {start}
    while frontier:
        s = frontier.pop()
        for a in K.actions:
            if not a.preconditions <= s:
                continue
            nxt = apply(s, a)
            if nxt not in seen:
                if len(seen) >= max_states:
                    raise RuntimeError("state-space cap exceeded")
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def is_conformant(problem: ConformantProblem, steps: Iterable[str]) -> bool:
    steps = tuple(steps)
    plan = Plan(steps)
    for s in initial_states(problem):
        result = run_plan(restrict(problem, s), plan)
        if not (result.applicable and result.achieved_goal):
            return False
    return True


# --- reference mutex fixpoint -----------------------------------------------------

def _pushed_rules(problem):
    """Per-action rule lists with preconditions pushed into conditions.

    Returns a flat list of (action_index, condition, effect); grouping by
    action index recovers the per-action structure.
    """
    out = []
    for idx, a in enumerate(problem.actions):
        for r in a.rules:
            out.append((idx, frozenset(a.preconditions | r.condition), r.effect))
    return out


def _initially_cosatisfiable(pi, L: Literal, Lp: Literal) -> bool:
    """Is there a possible initial state with both L and L' true?"""
    if Lp == L.negate():
        return False
    blocking = frozenset((L.negate(), Lp.negate()))
    # I |= ~L | ~L' iff that clause is subsumed by a prime implicate
    for c in pi.clauses:
        if c <= blocking:
            return False
    return True


def reference_mutex_set(problem: ConformantProblem, pi=None,
                        strengthened: bool = False):
    """The mutex greatest fixpoint by full scans: every literal pair against
    every prime implicate, every pair against every action and every
    ordered pair of its rules.  Returns the set of mutex pairs."""
    if pi is None:
        pi = prime_implicates(problem.init, problem.fluents)
    lits = all_literals(problem.fluents)
    rules = _pushed_rules(problem)
    by_action: Dict[int, List[Tuple[frozenset, Literal]]] = {}
    for idx, cond, eff in rules:
        by_action.setdefault(idx, []).append((cond, eff))

    pairs: Set[frozenset] = set()
    for a, b in itertools.combinations(lits, 2):
        if not _initially_cosatisfiable(pi, a, b):
            pairs.add(frozenset((a, b)))

    def set_mutex(S) -> bool:
        return any(frozenset(p) in pairs
                   for p in itertools.combinations(set(S), 2))

    def implies(S: frozenset, target: frozenset) -> bool:
        for lit in target - S:
            if not set_mutex(S | {lit.negate()}):
                return False
        return True

    def pair_ok(pair: frozenset) -> bool:
        two = sorted(pair)
        L, Lp = (two[0], two[1]) if len(two) == 2 else (two[0], two[0])
        for a_rules in by_action.values():
            # condition on simultaneous addition
            for (c1, e1), (c2, e2) in itertools.permutations(a_rules, 2):
                if e1 == L and e2 == Lp and not set_mutex(c1 | c2):
                    return False
            # condition on addition next to persistence
            for head, other in ((L, Lp), (Lp, L)):
                for cond, eff in a_rules:
                    if eff != head:
                        continue
                    if other == head.negate():
                        continue
                    if set_mutex(cond | {other}):
                        continue
                    base = cond | {other} if strengthened else cond
                    if any(eff2 == other.negate() and implies(base, cond2)
                           for cond2, eff2 in a_rules):
                        continue
                    return False
        return True

    changed = True
    while changed:
        changed = False
        for pair in sorted(pairs, key=sorted_lits):
            if pair not in pairs:
                continue
            if not pair_ok(pair):
                pairs.discard(pair)
                changed = True
    return frozenset(pairs)


# --- generated benchmark instances --------------------------------------------------

# The deterministic instances of the benchmark's solve and translate
# workloads (perfbench/workloads.py), as (family, params).
BENCH_INSTANCES = (
    ("bomb", (10, 10)), ("bomb", (12, 4)), ("safe", (25,)),
    ("square-center", (6,)), ("corners-square", (8,)), ("ring", (4,)),
    ("sgripper", (3,)), ("bomb", (16, 16)), ("safe", (40,)),
    ("disjtoy", (9,)), ("square-center", (8,)), ("sortnet", (7,)),
)


def compiled_instance(family: str, params: Sequence[int], copies: int = 1):
    """A generated instance as the pipeline analyses it, with its oneof
    bookkeeping: goal clauses compiled away and oneof effects determinized
    with ``copies`` copies (no-op on deterministic instances)."""
    problem = cnf_goal_compile(pddl.load(*generators.generate(family, params)))
    return nondet_compile(problem, copies)


# --- reference planner ----------------------------------------------------------

class reference_grounded:
    """The planner's indexed problem with states as frozensets of true atom
    ids and a binary-heap hadd: the form `kplan.planner.Grounded` had
    before its states became int bitmasks.  Atom ids are the same (sorted
    fluent names), so atom set S corresponds to mask sum(1 << i for i in S)."""

    def __init__(self, K: ClassicalProblem):
        self.problem = K
        self.atoms: List[str] = sorted(K.fluents)
        self.aid: Dict[str, int] = {a: i for i, a in enumerate(self.atoms)}
        self.init = frozenset(
            self.aid[l.fluent] for l in K.init if l.positive)
        self.goal = sorted((self.aid[l.fluent], l.positive) for l in K.goal)
        self.actions = []
        for a in K.actions:
            pre = sorted((self.aid[l.fluent], l.positive)
                         for l in a.preconditions)
            rules = []
            for r in a.rules:
                cond = sorted((self.aid[l.fluent], l.positive)
                              for l in r.condition)
                rules.append((cond, self.aid[r.effect.fluent],
                              r.effect.positive))
            cost = 0 if a.name in K.merges else 1
            self.actions.append((a.name, pre, rules, cost))
        # relaxed rules: props are 2*atom (true) / 2*atom+1 (false)
        self.relaxed = []
        for name, pre, rules, cost in self.actions:
            pre_props = [2 * i + (0 if v else 1) for i, v in pre]
            for cond, eff, sign in rules:
                props = pre_props + [2 * i + (0 if v else 1) for i, v in cond]
                eff_prop = 2 * eff + (0 if sign else 1)
                self.relaxed.append((tuple(props), eff_prop, cost))
        self.rules_by_prop: Dict[int, List[int]] = {}
        for ridx, (props, _, _) in enumerate(self.relaxed):
            for p in set(props):
                self.rules_by_prop.setdefault(p, []).append(ridx)
        self.goal_props = [2 * i + (0 if v else 1) for i, v in self.goal]
        self._counter0 = [len(set(p)) for p, _, _ in self.relaxed]
        self._partial0 = [float(c) for _, _, c in self.relaxed]
        self._unconditional = [(eff, float(c))
                               for (_, eff, c), cnt in zip(self.relaxed,
                                                           self._counter0)
                               if cnt == 0]

    def holds(self, state, lits) -> bool:
        return all((i in state) == v for i, v in lits)

    def applicable(self, state):
        for idx, (_, pre, _, _) in enumerate(self.actions):
            if self.holds(state, pre):
                yield idx

    def apply(self, state, action_idx: int):
        name, _, rules, _ = self.actions[action_idx]
        add_true, add_false = set(), set()
        for cond, eff, sign in rules:
            if self.holds(state, cond):
                (add_true if sign else add_false).add(eff)
        conflict = add_true & add_false
        if conflict:
            bad = sorted(self.atoms[i] for i in conflict)
            raise InconsistentResult(
                f"action {name} adds complementary literals on {bad}")
        return frozenset((state - add_false) | add_true)

    def is_goal(self, state) -> bool:
        return self.holds(state, self.goal)

    def hadd(self, state) -> float:
        n_props = 2 * len(self.atoms)
        cost = [INF] * n_props
        counter = self._counter0.copy()
        partial = self._partial0.copy()
        heap: List[Tuple[float, int]] = []
        for i in range(len(self.atoms)):
            p = 2 * i if i in state else 2 * i + 1
            cost[p] = 0.0
            heap.append((0.0, p))
        heapq.heapify(heap)

        def relax(eff: int, value: float):
            if value < cost[eff]:
                cost[eff] = value
                heapq.heappush(heap, (value, eff))

        for eff, value in self._unconditional:
            relax(eff, value)
        while heap:
            c, p = heapq.heappop(heap)
            if c > cost[p]:
                continue
            for ridx in self.rules_by_prop.get(p, ()):
                partial[ridx] += c
                counter[ridx] -= 1
                if counter[ridx] == 0:
                    relax(self.relaxed[ridx][1], partial[ridx])
        return sum(cost[g] for g in self.goal_props)


def _reference_reconstruct(parents, state, g: reference_grounded) -> Plan:
    steps: List[str] = []
    while parents[state] is not None:
        state, action_idx = parents[state]
        steps.append(g.actions[action_idx][0])
    steps.reverse()
    return Plan.for_problem(steps, g.problem)


def reference_solve(K: ClassicalProblem, max_nodes: int = 200_000,
                    evaluated_states=None) -> SolveResult:
    """The planner's greedy best-first search over `reference_grounded`,
    FIFO tie-breaking, with the same counters as `kplan.planner.solve`.
    Appends each state it evaluates to ``evaluated_states`` if given."""
    start = time.monotonic()
    g = reference_grounded(K)
    if evaluated_states is not None:
        hadd = g.hadd

        def recording_hadd(state):
            evaluated_states.append(state)
            return hadd(state)

        g.hadd = recording_hadd
    init = g.init
    parents = {init: None}
    if g.is_goal(init):
        return SolveResult(SolveStatus.SOLVED,
                           _reference_reconstruct(parents, init, g),
                           0, 1, 0, time.monotonic() - start)
    h0 = g.hadd(init)
    evaluated = 1
    if h0 == INF:
        return SolveResult(SolveStatus.UNSOLVABLE, None, 0, 1, evaluated,
                           time.monotonic() - start)
    tie = itertools.count()
    open_heap = [(h0, next(tie), init)]
    expanded = generated = 0
    truncated = False
    while open_heap:
        if expanded >= max_nodes:
            truncated = True
            break
        _, _, state = heapq.heappop(open_heap)
        expanded += 1
        for action_idx in g.applicable(state):
            succ = g.apply(state, action_idx)
            if succ in parents:
                continue
            parents[succ] = (state, action_idx)
            generated += 1
            if g.is_goal(succ):
                return SolveResult(SolveStatus.SOLVED,
                                   _reference_reconstruct(parents, succ, g),
                                   expanded, generated, evaluated,
                                   time.monotonic() - start)
            h = g.hadd(succ)
            evaluated += 1
            if h == INF:
                continue
            heapq.heappush(open_heap, (h, next(tie), succ))
    status = SolveStatus.BUDGET_OUT if truncated else SolveStatus.UNSOLVABLE
    return SolveResult(status, None, expanded, generated, evaluated,
                       time.monotonic() - start)


def reference_bfs_optimal(K: ClassicalProblem, depth_cap: int = 10,
                          max_states: int = 2_000_000):
    """The planner's 0/1-cost breadth-first oracle over
    `reference_grounded`."""
    g = reference_grounded(K)
    init = g.init
    dist = {init: 0}
    parents = {init: None}
    dq = deque([init])
    while dq:
        state = dq.popleft()
        d = dist[state]
        if g.is_goal(state):
            return _reference_reconstruct(parents, state, g)
        for action_idx in g.applicable(state):
            cost = g.actions[action_idx][3]
            nd = d + cost
            if nd > depth_cap:
                continue
            succ = g.apply(state, action_idx)
            if succ in dist and dist[succ] <= nd:
                continue
            if len(dist) >= max_states:
                return None
            dist[succ] = nd
            parents[succ] = (state, action_idx)
            if cost == 0:
                dq.appendleft(succ)
            else:
                dq.append(succ)
    return None


# --- reference state enumeration --------------------------------------------------

def states_until_cap(enumerate_states, *args, **kwargs):
    """The states in enumeration order, then "cap" if the cap was hit."""
    out = []
    try:
        out.extend(enumerate_states(*args, **kwargs))
    except CapExceeded:
        out.append("cap")
    return out


def reference_enumerate_states(clauses: Iterable[Clause],
                               fluents: Iterable[str],
                               forced: Iterable[Literal] = (),
                               cap: Optional[int] = DEFAULT_STATE_CAP
                               ) -> Iterator[State]:
    """Backtracking enumeration of complete consistent states over
    ``fluents`` satisfying ``clauses``, with ``forced`` literals pinned:
    `kplan.pi.enumerate_models` (then `kplan.verify._enumerate_states`) as
    it was before it kept an explicit stack, recursing once per fluent and
    checking every clause per node."""
    fluents = tuple(sorted(set(fluents)))
    clauses = [frozenset(c) for c in clauses]
    forced = list(forced)
    if not lits_consistent(forced):
        return
    assignment: Dict[str, bool] = {l.fluent: l.positive for l in forced}

    def open_clause(c: Clause) -> bool:
        undecided = False
        for l in c:
            v = assignment.get(l.fluent)
            if v is None:
                undecided = True
            elif v == l.positive:
                return True
        return undecided

    order = [f for f in fluents if f not in assignment]
    count = 0

    def walk(i: int) -> Iterator[State]:
        nonlocal count
        if not all(open_clause(c) for c in clauses):
            return
        if i == len(order):
            count += 1
            if cap is not None and count > cap:
                raise TooManyInitialStates(
                    f"state enumeration exceeded cap {cap}")
            yield frozenset(Literal(f, v) for f, v in assignment.items())
            return
        f = order[i]
        for value in (False, True):
            assignment[f] = value
            yield from walk(i + 1)
        del assignment[f]

    yield from walk(0)


# --- reference translation builder ------------------------------------------------

def _reference_relevant_fluents(ctx: Context, L: Literal) -> FrozenSet[str]:
    return frozenset(l.fluent for l in ctx.rel.relevant_to(L))


def reference_ktm(problem: ConformantProblem, spec: TranslationSpec,
                  ctx: Optional[Context] = None, optimized: bool = False,
                  validate: Optional[bool] = None) -> ClassicalProblem:
    """Build the classical problem induced by a tag/merge spec: the
    builder `kplan.translate.ktm` was before it read per-tag and
    per-literal tables, recomputing every decision per rule and tag.

    With ``optimized`` the builder applies, in order: (1) tagged atoms
    whose tag closure carries nothing relevant to their literal collapse
    onto the untagged atom; (2) support/cancellation rules are dropped at
    tags through which nothing relevant to their head is merged; (3)
    support and cancellation collapse into one rule where the tag decides
    every fluent relevant to the head; (4) effects C,~L -> L of actions
    that never delete L yield the extra deduction rule KC -> KL; (5) each
    static disjunction yields case-elimination rules K~L_j (j != i) -> KL_i
    on a dedicated action.
    """
    if problem.goal_clauses:
        raise UnsupportedFeature("compile clause goals away first")
    if not problem.deterministic:
        raise UnsupportedFeature("compile nondeterministic effects away first")
    if ctx is None:
        ctx = build_context(problem)
    pi = ctx.pi
    if validate is None:
        validate = not spec.trusted
    if validate:
        for t in spec.tags:
            if not pi.tag_consistent(t):
                raise InvalidSpec(f"inconsistent tag {sorted_lits(t)}")
        for m in spec.merges:
            if not pi.merge_valid(m):
                raise InvalidSpec(f"invalid merge for {m.target}")

    lits = analysis.all_literals(problem.fluents)
    rel = ctx.rel

    def collapses(L: Literal, t: Tag) -> bool:
        return bool(t) and not (pi.closure(t) & rel.relevant_to(L))

    def atom(L: Literal, t: Tag) -> str:
        if optimized and collapses(L, t):
            return atom_name(L, EMPTY_TAG)
        return atom_name(L, t)

    # which literals get merged through each tag (for rule dropping)
    merged_through: Dict[Tag, Set[Literal]] = {}
    for m in spec.merges:
        for t in m.tags:
            merged_through.setdefault(t, set()).add(m.target)

    def useful(L: Literal, t: Tag) -> bool:
        if not optimized or not t:
            return True
        targets = merged_through.get(t, ())
        return any(rel.relevant(L, tgt) for tgt in targets)

    fluents: Set[str] = set()
    for L in lits:
        for t in spec.tags:
            fluents.add(atom(L, t))

    init: Set[Literal] = set()
    for t in spec.tags:
        for L in pi.closure(t):
            if L.fluent in problem.fluents:
                init.add(pos(atom(L, t)))

    goal = frozenset(pos(atom(L, EMPTY_TAG)) for L in problem.goal)

    def decided(L: Literal, t: Tag) -> bool:
        cl = pi.closure(t)
        for f in _reference_relevant_fluents(ctx, L):
            if pos(f) not in cl and neg(f) not in cl:
                return False
        return True

    actions: List[Action] = []
    for a in problem.actions:
        rules: Set[Rule] = set()
        for r in a.rules:
            L = r.effect
            for t in spec.tags:
                head_support = not (optimized and collapses(L, t) and t)
                head_cancel = not (optimized and collapses(L.negate(), t) and t)
                emit_support = head_support and useful(L, t)
                emit_cancel = head_cancel and useful(L.negate(), t)
                if not emit_support and not emit_cancel:
                    continue
                support_cond = frozenset(pos(atom(c, t)) for c in r.condition)
                if optimized and decided(L, t):
                    # grouped support + cancellation
                    rules.add(Rule(support_cond, pos(atom(L, t))))
                    rules.add(Rule(support_cond,
                                   Literal(atom(L.negate(), t), False)))
                    continue
                if emit_support:
                    rules.add(Rule(support_cond, pos(atom(L, t))))
                if emit_cancel:
                    cancel_cond = frozenset(
                        Literal(atom(c.negate(), t), False)
                        for c in r.condition)
                    rules.add(Rule(cancel_cond,
                                   Literal(atom(L.negate(), t), False)))
        if optimized:
            # extra deduction: a: C,~L -> L with no a-rule deleting L
            heads = {r.effect for r in a.rules}
            for r in a.rules:
                L = r.effect
                if L.negate() in r.condition and L.negate() not in heads:
                    cond = frozenset(pos(atom(c, EMPTY_TAG))
                                     for c in r.condition if c != L.negate())
                    rules.add(Rule(cond, pos(atom(L, EMPTY_TAG))))
        precs = frozenset(pos(atom(L, EMPTY_TAG)) for L in a.preconditions)
        actions.append(Action(a.name, precs,
                              tuple(sorted(rules, key=Rule.sort_key))))

    merge_names: Set[str] = set()
    if optimized:
        static_rules: Set[Rule] = set()
        heads_anywhere = {r.effect for act in problem.actions for r in act.rules}
        for c in pi.nonunit_clauses:
            if any(l.negate() in heads_anywhere for l in c):
                continue  # some literal of the clause can be deleted
            for l in c:
                cond = frozenset(pos(atom(o.negate(), EMPTY_TAG))
                                 for o in c if o != l)
                static_rules.add(Rule(cond, pos(atom(l, EMPTY_TAG))))
        if static_rules:
            # pure deduction: bookkeeping like a merge, stripped from plans
            actions.append(Action(STATIC_ACTION_NAME, frozenset(),
                                  tuple(sorted(static_rules,
                                               key=Rule.sort_key))))
            merge_names.add(STATIC_ACTION_NAME)

    for m in spec.merges:
        name = merge_action_name(m)
        if name in merge_names:
            continue
        merge_names.add(name)
        cond = frozenset(pos(atom(m.target, t)) for t in m.tags)
        effects = [Rule(cond, pos(atom(m.target, EMPTY_TAG)))]
        for other in sorted(ctx.mutexes.mutex_with(m.target)):
            if other == m.target.negate():
                continue
            effects.append(Rule(cond, pos(atom(other.negate(), EMPTY_TAG))))
        actions.append(Action(name, frozenset(), tuple(effects)))

    actions.sort(key=lambda a: a.name)
    return ClassicalProblem(frozenset(fluents), frozenset(init),
                            tuple(actions), goal, frozenset(merge_names))


# --- reference bounded-width spec ---------------------------------------------------

def reference_spec_ki(ctx: Context, i: int,
                      include_all: bool = False) -> TranslationSpec:
    """Bounded-width scheme: per target literal, the cover of the least
    clause subset of size <= i that satisfies its relevant clauses; when no
    such subset exists, one cover per size-i subset (sound but possibly
    incomplete).  `kplan.translate.spec_ki` as it was before it took its
    witness from `width_of_literal`, with its own search of sizes 0..i."""
    if i < 0:
        raise ValueError("i must be >= 0")
    merges: List[Merge] = []
    for L in target_literals(ctx.problem, include_all):
        rcs = ctx.relevant_clause_set(L)
        if not rcs.extended or not rcs.clauses:
            continue
        chosen: Optional[Tuple[FrozenSet[Literal], ...]] = None
        for size in range(0, i + 1):
            for C in itertools.combinations(rcs.extended, size):
                cov = cover(C, ctx.pi)
                if cov and satisfies(cov, rcs.clauses, ctx.pi):
                    chosen = cov
                    break
            if chosen:
                break
        if chosen:
            merges.append(Merge(frozenset(chosen), L))
        elif i > 0:
            for C in itertools.combinations(rcs.extended, i):
                cov = cover(C, ctx.pi)
                if cov and frozenset(cov) != frozenset((EMPTY_TAG,)):
                    merges.append(Merge(frozenset(cov), L))
    return make_spec((), merges, f"k{i}", trusted=True)
