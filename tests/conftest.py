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
    apply,
    conformant_problem,
    make_spec,
    neg,
    pos,
    restrict,
    run_plan,
)
from kplan import analysis, generators, pddl
from kplan.analysis import (Context, Masks, all_literals, build_context,
                            cover, masked, relevant_clauses, satisfies,
                            target_literals)
from kplan.errors import (CapExceeded, InvalidSpec, TooManyInitialStates,
                          TooManyModels, UnsupportedFeature,
                          ValidityUndecidedAtCap, WidthSearchCap)
from kplan.model import (Action, ClassicalProblem, Clause, NondetRule,
                         Rule, State, is_tautology, lits_consistent,
                         sorted_lits)
from kplan.pi import (DEFAULT_MODEL_CAP, EMPTY_TAG, Tag, enumerate_models,
                      prime_implicates)
from kplan.planner import INF, SolveResult, SolveStatus
from kplan.translate import (
    TranslationSpec,
    atom_name,
    cnf_goal_compile,
    merge_action_name,
    nondet_compile,
)
from kplan.verify import DEFAULT_STATE_CAP, initial_states


# --- problem construction -----------------------------------------------------

def rule(condition: Iterable[Literal], effect: Literal) -> Rule:
    """The rule condition -> effect; ``conformant_problem`` checks that
    its condition holds no complementary pair."""
    return Rule(frozenset(condition), effect)


def action(name, preconditions=(), rules=(), nondet_rules=()) -> Action:
    return Action(name, frozenset(preconditions), tuple(rules),
                  tuple(nondet_rules))


# --- reference PDDL tokenizer -----------------------------------------------------

def reference_tokenize(text: str) -> Iterator[Tuple[str, int, int]]:
    """(text, line, column) per token: `kplan.pddl._tokenize` as it was
    before it matched one regular expression, scanning character by
    character.  Space, tab, CR and LF separate tokens; ``;`` starts a
    comment to the end of the line; each parenthesis is a token."""
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
        elif ch in " \t\r":
            col += 1
            i += 1
        elif ch == ";":
            while i < n and text[i] != "\n":
                i += 1
        elif ch in "()":
            yield ch, line, col
            col += 1
            i += 1
        else:
            start, start_col = i, col
            while i < n and text[i] not in " \t\r\n();":
                i += 1
                col += 1
            yield text[start:i], line, start_col


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
                     trusted=True)
    return problem, spec, t1, t2


@pytest.fixture
def pickdrop():
    return build_pickdrop()


# --- oneof worked example -----------------------------------------------------

def coin_problem():
    """flip lands heads or tails; a conditional action reports heads."""
    return conformant_problem(
        ["heads", "tails", "flipped", "seen"],
        [[neg("heads")], [neg("tails")], [neg("flipped")], [neg("seen")]],
        [action("flip",
                rules=[rule([], pos("flipped"))],
                nondet_rules=[NondetRule(
                    frozenset(),
                    (frozenset([pos("heads")]), frozenset([pos("tails")])))]),
         action("look", rules=[rule([pos("heads")], pos("seen")),
                               rule([pos("tails")], pos("seen"))])],
        [pos("flipped"), pos("seen")])


# --- seeded random problem suite ------------------------------------------------

def random_problem(rng: random.Random, max_fluents: int = 6,
                   max_actions: int = 5,
                   reachable_goal: bool = False) -> ConformantProblem:
    """A small consistent conformant problem.

    Within one action all rule heads are on distinct fluents, so applying
    an action can never add a complementary pair; this keeps progression
    total and keeps the basic translation in step with the weak semantics.

    With ``reachable_goal`` the goal literals are rule heads, so that most
    goals can be reached, and an action gives each head fluent one sign
    but may set it by several rules, whose conditions may hold the head's
    complement (C, ~L -> L).  Translations of these problems have rules
    that pruning makes equal, and atoms that merge.
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
        if reachable_goal:
            signs = {hf: rng.random() < 0.5 for hf in heads}
            for _ in range(rng.randint(len(heads), len(heads) + 2)):
                hf = rng.choice(heads)
                head = Literal(hf, signs[hf])
                cond_fs = rng.sample(fluents, rng.randint(0, 2))
                rules.append(rule([head.negate() if f == hf
                                   else Literal(f, rng.random() < 0.5)
                                   for f in cond_fs], head))
        else:
            for hf in heads:
                head = Literal(hf, rng.random() < 0.5)
                others = [f for f in fluents if f != hf]
                cond_fs = rng.sample(others,
                                     min(rng.randint(0, 2), len(others)))
                rules.append(rule([Literal(f, rng.random() < 0.5)
                                   for f in cond_fs], head))
        pre = []
        if rng.random() < 0.3:
            pre = [Literal(rng.choice(fluents), rng.random() < 0.5)]
        actions.append(action(f"a{ai}", pre, rules))
    if reachable_goal:
        heads = sorted({r.effect for a in actions for r in a.rules})
        goal = {}
        for l in rng.sample(heads, min(len(heads), rng.randint(1, 2))):
            goal.setdefault(l.fluent, l)
        return conformant_problem(fluents, init, actions, goal.values())
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
    result = run_plan(K, Plan(tuple(steps)))
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


# --- reference relevance fixpoint and covers ----------------------------------------

def reference_relevance(problem: ConformantProblem,
                        rule4: str = "standard"
                        ) -> Tuple[Dict[Literal, FrozenSet[Literal]],
                                   Dict[Literal, FrozenSet[Literal]]]:
    """Least fixpoint of the relevance rules, as (reachable, relevant):
    per literal L, the literals L is relevant to and the literals
    relevant to L.

    1. L -> L;
    2. L -> L' for every rule C -> L' with L in C;
    3. L -> L' and L' -> L'' imply L -> L'';
    4. L -> L' if L -> ~L'' and L'' -> ~L' for some L''.

    Action preconditions do not induce relevance.  ``rule4="contrapositive"``
    swaps rule 4 for the variant "L -> L' if ~L -> ~L'", used only to
    cross-check the two formulations empirically.
    """
    if rule4 not in ("standard", "contrapositive"):
        raise ValueError(rule4)
    lits = all_literals(problem.fluents)
    reach: Dict[Literal, Set[Literal]] = {l: {l} for l in lits}
    for a in problem.actions:
        for r in a.rules:
            for c in r.condition:
                reach[c].add(r.effect)
    changed = True
    while changed:
        changed = False
        for L in lits:
            cur = reach[L]
            new = set(cur)
            for X in cur:
                new |= reach[X]  # rule 3
            if rule4 == "standard":
                for X in cur:
                    # X = ~L'' for L'' = ~X; L'' -> ~L' gives L -> L'
                    for Z in reach[X.negate()]:
                        new.add(Z.negate())
            else:
                for Z in reach[L.negate()]:
                    new.add(Z.negate())
            if new != cur:
                reach[L] = new
                changed = True
    relevant: Dict[Literal, Set[Literal]] = {l: set() for l in lits}
    for L, targets in reach.items():
        for target in targets:
            relevant[target].add(L)
    return ({l: frozenset(s) for l, s in reach.items()},
            {l: frozenset(s) for l, s in relevant.items()})


def reference_entails_literal(pi, t: Tag, L: Literal) -> bool:
    """I, t |= L for I in prime-implicate form: L is in t, or the clause
    ~t | L is a tautology or contains a prime implicate of I.  The
    literal-by-literal specification of ``PICNF.closure``."""
    if L in t:
        return True
    target = frozenset(l.negate() for l in t) | {L}
    return is_tautology(target) or any(c <= target for c in pi.clauses)


def reference_cover(C: Iterable[Clause], pi) -> Tuple[FrozenSet[Literal], ...]:
    """All minimal I-consistent literal sets hitting every clause of C."""
    clauses = sorted({frozenset(c) for c in C}, key=sorted_lits)
    found: Set[FrozenSet[Literal]] = set()

    def walk(i: int, S: Set[Literal]):
        if i == len(clauses):
            found.add(frozenset(S))
            return
        c = clauses[i]
        if S & c:
            walk(i + 1, S)
            return
        for lit in sorted(c):
            if lit.negate() in S:
                continue
            S.add(lit)
            if pi.tag_consistent(frozenset(S)):
                walk(i + 1, S)
            S.discard(lit)

    walk(0, set())
    minimal = [s for s in found
               if not any(o < s for o in found)]
    return tuple(sorted(minimal, key=sorted_lits))


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


# Every generator at a small size.
SMALL_INSTANCES = [("safe", (4,)), ("bomb", (3, 3)), ("ring", (3,)),
                   ("square-center", (3,)), ("corners-square", (4,)),
                   ("sortnet", (3,)), ("disjtoy", (4,)), ("sgripper", (1,))]


def one_dispose(k: int, m: int) -> Tuple[str, str]:
    """1-dispose-k-m as (domain_text, problem_text): a one-handed robot on
    a line of k cells, with the trash at c1, must dispose of m objects,
    each in an unknown cell.  ``pick`` needs ``handempty``, whose relevant
    clauses are the m fluent-disjoint oneof groups, so its width is m.
    The statics and the other known fluents are stated in full, true or
    false: a fluent the init does not mention is unknown."""
    cells = [f"c{i}" for i in range(1, k + 1)]
    objs = [f"o{j}" for j in range(1, m + 1)]
    name = f"one-dispose-{k}-{m}"
    dom = "\n".join([
        f"(define (domain {name})",
        "  (:requirements :strips :typing :conditional-effects)",
        "  (:types cell obj)",
        "  (:predicates (at ?c - cell) (adj ?a ?b - cell) (trash ?c - cell)",
        "    (obj-at ?o - obj ?c - cell) (holding ?o - obj) (handempty)",
        "    (disposed ?o - obj))",
        "  (:action move :parameters (?a ?b - cell)",
        "    :precondition (and (at ?a) (adj ?a ?b))",
        "    :effect (and (at ?b) (not (at ?a))))",
        "  (:action pick :parameters (?o - obj ?c - cell)",
        "    :precondition (and (at ?c) (handempty))",
        "    :effect (when (obj-at ?o ?c)",
        "      (and (holding ?o) (not (obj-at ?o ?c)) (not (handempty)))))",
        "  (:action drop :parameters (?o - obj ?c - cell)",
        "    :precondition (and (at ?c) (trash ?c))",
        "    :effect (when (holding ?o)",
        "      (and (disposed ?o) (not (holding ?o)) (handempty))))",
        ")"]) + "\n"

    def holds(atom: str, value: bool) -> str:
        return f"({atom})" if value else f"(not ({atom}))"

    init = [holds(f"adj {a} {b}", abs(i - j) == 1)
            for i, a in enumerate(cells) for j, b in enumerate(cells)]
    init += [holds(f"{p} {c}", c == "c1") for p in ("trash", "at")
             for c in cells]
    init += ["(handempty)"] + [holds(f"{p} {o}", False)
                               for p in ("holding", "disposed") for o in objs]
    init += ["(oneof " + " ".join(f"(obj-at {o} {c})" for c in cells) + ")"
             for o in objs]
    goal = " ".join(f"(disposed {o})" for o in objs)
    prob = "\n".join([
        f"(define (problem {name}-1)", f"  (:domain {name})",
        f"  (:objects {' '.join(cells)} - cell {' '.join(objs)} - obj)",
        "  (:init " + " ".join(init) + ")",
        f"  (:goal (and {goal}))",
        ")"]) + "\n"
    return dom, prob


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
        # relaxed rules, each of cost one, merges' included: props are
        # 2*atom (true) / 2*atom+1 (false)
        self.relaxed = []
        for name, pre, rules, _ in self.actions:
            pre_props = [2 * i + (0 if v else 1) for i, v in pre]
            for cond, eff, sign in rules:
                props = pre_props + [2 * i + (0 if v else 1) for i, v in cond]
                eff_prop = 2 * eff + (0 if sign else 1)
                self.relaxed.append((tuple(props), eff_prop, 1))
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
    return Plan(tuple(steps))


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
    it was before it kept an explicit stack and took pins as unit clauses,
    recursing once per fluent and checking every clause per node."""
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


# --- reference 0-approximation step ----------------------------------------------

def reference_zero_approx_step(known: FrozenSet[Literal],
                               action) -> FrozenSet[Literal]:
    """One step of the weak (0-approximation) progression:
    `kplan.verify.zero_approx_step` as it was before it worked on whole
    rule sets, deciding each polarity of each fluent over every rule."""
    nxt: Set[Literal] = set()
    fluents = {r.effect.fluent for r in action.rules} | {l.fluent for l in known}
    for f in sorted(fluents):
        for L in (neg(f), pos(f)):
            supported = any(r.effect == L and all(l in known
                                                  for l in r.condition)
                            for r in action.rules)
            persists = L in known and all(
                any(l.negate() in known for l in r.condition)
                for r in action.rules if r.effect == L.negate())
            if supported or persists:
                nxt.add(L)
    return frozenset(l for l in nxt if l.negate() not in nxt)


# --- reference translation builder ------------------------------------------------

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
    effects C,~L -> L of actions that never delete L yield the extra
    deduction rule KC -> KL.  Optimized, only the atoms that a rule, a
    merge, the goal or a precondition mentions are declared.  KL/t is
    named by the whole tag t; ``project_reference`` renames it KL/p, for
    the projection p that ``ktm`` names it by.
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

    def relevant_to(L: Literal) -> FrozenSet[Literal]:
        return frozenset(masked(ctx.rel.lits, ctx.rel.relevant[L]))

    def collapses(L: Literal, t: Tag) -> bool:
        return bool(t) and not (pi.closure(t) & relevant_to(L))

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
        return any(L in relevant_to(tgt) for tgt in targets)

    def declared(L: Literal, t: Tag) -> bool:
        # KL/t exists where t keeps the rules with head L or KL/t is KL
        return useful(L, t) or (optimized and collapses(L, t))

    fluents: Set[str] = set()
    for L in lits:
        for t in spec.tags:
            if declared(L, t):
                fluents.add(atom(L, t))

    init: Set[Literal] = set()
    for t in spec.tags:
        for L in pi.closure(t):
            if L.fluent in problem.fluents and declared(L, t):
                init.add(pos(atom(L, t)))

    goal = frozenset(pos(atom(L, EMPTY_TAG)) for L in problem.goal)

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
                if emit_support:
                    support_cond = frozenset(pos(atom(c, t))
                                             for c in r.condition)
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
    if optimized:
        fluents = {l.fluent for l in goal}
        for a in actions:
            fluents |= {l.fluent for l in a.preconditions}
            for r in a.rules:
                fluents |= {l.fluent for l in r.condition | {r.effect}}
        init = {l for l in init if l.fluent in fluents}
    return ClassicalProblem(frozenset(fluents), frozenset(init),
                            tuple(actions), goal)


def project_reference(K: ClassicalProblem, problem: ConformantProblem,
                      spec: TranslationSpec,
                      ctx: Context) -> ClassicalProblem:
    """``reference_ktm``'s optimized encoding K with each atom KL/t
    renamed KL/p, for the projection p = (t* - {}*) & relevant_to(L) of t
    onto L (KL when p is empty), and the rules that become equal joined."""
    units = ctx.pi.closure(EMPTY_TAG)
    rename = {}
    for t in spec.tags:
        extra = ctx.pi.closure(t) - units
        for L in all_literals(problem.fluents):
            p = extra & frozenset(masked(ctx.rel.lits, ctx.rel.relevant[L]))
            rename[atom_name(L, t)] = atom_name(L, p)

    def lit(l: Literal) -> Literal:
        return Literal(rename.get(l.fluent, l.fluent), l.positive)

    def lits(ls: Iterable[Literal]) -> FrozenSet[Literal]:
        return frozenset(map(lit, ls))

    actions = []
    for a in K.actions:
        rules = dict.fromkeys(Rule(lits(r.condition), lit(r.effect))
                              for r in a.rules)
        if a.name not in K.merges:
            rules = sorted(rules, key=Rule.sort_key)
        actions.append(Action(a.name, lits(a.preconditions), tuple(rules)))
    return ClassicalProblem(frozenset(rename.get(f, f) for f in K.fluents),
                            lits(K.init), tuple(actions), lits(K.goal))


def fold_reference(K: ClassicalProblem, problem: ConformantProblem,
                   spec: TranslationSpec, ctx: Context) -> ClassicalProblem:
    """``project_reference``'s encoding K less the idle merges, and with
    the folded literals.

    A merge to L is idle when no rule of ``problem`` sets ~L, each rule
    that sets L has a condition within {~L}, and ~L is the only literal
    mutex with L.  Its action goes.  A rule with head KL/p, p not empty,
    then stays only if some tag whose projection onto L is p is merged
    through to a target, not idle, that L is relevant to.

    A literal c is folded when no rule of ``problem`` sets it and no merge
    that stays sets its atom Kc (as its target, or as the complement of a
    literal mutex with its target).  Each atom Kc/p that K names, for the
    projection p of a tag onto c, starts true iff c is in p or I entails
    c, and never becomes true, as no rule sets it; it is a constant if it
    starts false or no rule sets ~c either.  A support or cancellation
    rule with a conjunct that never holds goes, and so does a rule whose
    head is a constant atom; the conjuncts that always hold are left out
    of the others.  The extra deduction rules KC -> KL of
    ``reference_ktm`` stay as they are, and so do the preconditions and
    the goal.  Only the atoms still mentioned are declared."""
    rules_of = [r for a in problem.actions for r in a.rules]
    heads = {r.effect for r in rules_of}

    def idle(L: Literal) -> bool:
        return L.negate() not in heads and all(
            r.condition <= {L.negate()} for r in rules_of if r.effect == L
        ) and not any(ctx.mutexes.mutex(L, o)
                      for o in all_literals(problem.fluents)
                      if o != L.negate())

    merges = [m for m in spec.merges if not idle(m.target)]
    kept = {merge_action_name(m) for m in merges}
    units = ctx.pi.closure(EMPTY_TAG)

    def relevant_to(L: Literal) -> FrozenSet[Literal]:
        return frozenset(masked(ctx.rel.lits, ctx.rel.relevant[L]))

    def projection(t: Tag, L: Literal) -> FrozenSet[Literal]:
        return (ctx.pi.closure(t) - units) & relevant_to(L)

    tagged = {atom_name(L, projection(t, L)) for t in spec.tags
              for L in all_literals(problem.fluents) if projection(t, L)}
    read = {atom_name(L, projection(t, L)) for m in merges for t in m.tags
            for L in relevant_to(m.target)}
    unread = tagged - read

    changed = {L.fluent for L in heads}
    merged = set()
    for m in merges:
        merged.add(m.target)
        merged |= {o.negate() for o in ctx.mutexes.mutex_with(m.target)}
    extras = {ctx.pi.closure(t) - units for t in spec.tags}
    value: Dict[str, bool] = {}  # each constant atom -> its value
    for c in all_literals(problem.fluents):
        if c in heads or c in merged:
            continue
        for p in {extra & relevant_to(c) for extra in extras}:
            start = c in p or c in units
            if not start or c.fluent not in changed:
                value[atom_name(c, p)] = start

    actions = []
    for a in K.actions:
        if a.name in K.merges:
            if a.name in kept:
                actions.append(a)
            continue
        source = problem.action_by_name(a.name)
        heads = {r.effect for r in source.rules}
        deduction = {Rule(frozenset(pos(atom_name(c)) for c in r.condition
                                    if c != r.effect.negate()),
                          pos(atom_name(r.effect)))
                     for r in source.rules if r.effect.negate() in r.condition
                     and r.effect.negate() not in heads}
        plain_support = {Rule(frozenset(pos(atom_name(c))
                                        for c in r.condition),
                              pos(atom_name(r.effect)))
                         for r in source.rules}
        rules = set()
        for r in a.rules:
            if r in deduction:
                rules.add(r)
                if r not in plain_support:
                    continue  # only a deduction rule
            if r.effect.fluent in value or r.effect.fluent in unread:
                continue
            if all(value[l.fluent] == l.positive
                   for l in r.condition if l.fluent in value):
                rules.add(Rule(frozenset(l for l in r.condition
                                         if l.fluent not in value),
                               r.effect))
        actions.append(a._replace(rules=tuple(sorted(rules,
                                                     key=Rule.sort_key))))
    fluents = {l.fluent for l in K.goal}
    for a in actions:
        fluents |= {l.fluent for l in a.preconditions}
        for r in a.rules:
            fluents |= {l.fluent for l in r.condition | {r.effect}}
    return ClassicalProblem(frozenset(fluents),
                            frozenset(l for l in K.init if l.fluent in fluents),
                            tuple(actions), K.goal)


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
    return make_spec((), merges, trusted=True)


# --- reference model-based specs ------------------------------------------------

def _reference_models(pi, variables: Iterable[str],
                      extra: Iterable[Clause] = (),
                      cap: Optional[int] = DEFAULT_MODEL_CAP):
    """`kplan.pi.PICNF.models` as it was before it trusted the PI form:
    the clauses of I within ``variables``, plus ``extra``."""
    varset = frozenset(variables)
    constraints = [c for c in pi.clauses
                   if all(l.fluent in varset for l in c)]
    constraints += extra
    return enumerate_models(constraints, varset, cap=cap)


def reference_spec_ks0(ctx: Context, cap: int = DEFAULT_STATE_CAP
                       ) -> TranslationSpec:
    """`kplan.translate.spec_ks0` as it was before it trusted the PI form:
    every model over all the fluents, each restricted to the unknown ones."""
    unknown = set(ctx.pi.unknown_fluents())
    try:
        states = list(_reference_models(ctx.pi, ctx.problem.fluents, cap=cap))
    except ValidityUndecidedAtCap as exc:
        raise TooManyInitialStates(str(exc)) from exc
    tags = {frozenset(l for l in s if l.fluent in unknown) for s in states}
    tagset = frozenset(tags)
    merges = [Merge(tagset, L) for L in target_literals(ctx.problem)]
    return make_spec(tags, merges, trusted=True)


def reference_spec_kmodels(ctx: Context, cap: int = DEFAULT_MODEL_CAP,
                           include_all: bool = False) -> TranslationSpec:
    """`kplan.translate.spec_kmodels` as it was before it trusted the PI
    form: the relevant clauses added again to the enumeration, each model
    tested for consistency with I, and a merge only if one is left."""
    merges = []
    for L in target_literals(ctx.problem, include_all):
        rcs = ctx.relevant_clause_set(L)
        if not rcs.clauses:
            continue
        variables = sorted({l.fluent for c in rcs.clauses for l in c})
        try:
            models = [m for m in _reference_models(ctx.pi, variables,
                                                   extra=rcs.clauses, cap=cap)
                      if ctx.pi.tag_consistent(m)]
        except ValidityUndecidedAtCap as exc:
            raise TooManyModels(f"literal {L}: {exc}") from exc
        if models:
            merges.append(Merge(frozenset(models), L))
    return make_spec((), merges, trusted=True)


# --- reference width search ----------------------------------------------------

def reference_width_of_literal(ci: Iterable[Clause], L: Literal,
                               rel: Masks, pi,
                               cap: Optional[int] = None
                               ) -> Tuple[int, Tuple[Clause, ...]]:
    """Smallest |C|, C subset of C_I*(L), whose cover satisfies C_I(L):
    `kplan.analysis.width_of_literal` as it was before it searched by
    component, one search from size 1 over all of C_I*(L) on every call,
    with ``satisfies`` as it was then."""
    rcs = relevant_clauses(ci, L, rel)
    if not rcs.clauses:
        return 0, ()
    if cap is None:
        cap = len(pi.unknown_fluents())
    pool = rcs.extended
    for size in range(1, min(cap, len(pool)) + 1):
        for C in itertools.combinations(pool, size):
            if all(all(pi.closure(t) & c for c in rcs.clauses)
                   for t in cover(C, pi)):
                return size, C
    raise WidthSearchCap(
        f"no witness of size <= {cap} for literal {L}")
