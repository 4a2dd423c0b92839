"""Ground-truth oracles for plan validation.

Everything here is deliberately brute force and cap-guarded: exact
possible-initial-state enumeration, per-state plan checking, 3-valued
progression, exact belief-space breadth-first search, and basis
construction.  The planning pipeline is tested against these oracles,
never the other way around.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Set, Tuple

from .analysis import Context, RelevanceGraph, build_context
from .errors import (
    BasisStateNotFound,
    TooManyInitialStates,
    UnsupportedFeature,
)
from .model import (
    Clause,
    ConformantProblem,
    Literal,
    Plan,
    State,
    apply,
    lits_consistent,
    neg,
    pos,
    restrict,
    run_plan,
    sorted_lits,
    state_satisfies,
)
from .pi import PICNF, Tag, prime_implicates
from .translate import TranslationSpec

DEFAULT_STATE_CAP = 4096


def _enumerate_states(clauses: Iterable[Clause], fluents: Iterable[str],
                      forced: Iterable[Literal] = (),
                      cap: Optional[int] = DEFAULT_STATE_CAP
                      ) -> Iterator[State]:
    """Backtracking enumeration of complete consistent states over
    ``fluents`` satisfying ``clauses``, with ``forced`` literals pinned.

    Depth first with an explicit stack over the unforced fluents in sorted
    order, false before true.  The falsified literals form a bitmask, and
    a clause is violated once the mask covers it.  That can first happen
    when its last literal is falsified, so assigning a fluent checks only
    the clauses of the literal it falsifies: the binary ones at once,
    through the mask of their other literals, the others one by one.
    """
    fluents = tuple(sorted(set(fluents)))
    clauses = [frozenset(c) for c in clauses]
    forced = list(forced)
    if not lits_consistent(forced):
        return
    assignment: Dict[str, bool] = {l.fluent: l.positive for l in forced}
    bit: Dict[Literal, int] = {}
    for c in clauses:
        for l in c:
            bit.setdefault(l, 1 << len(bit))
    partners: Dict[Literal, int] = {}       # x -> the y of clauses {x, y}
    others: Dict[Literal, List[int]] = {}   # x -> masks of its other clauses
    masks = []
    for c in clauses:
        mask = sum(bit[l] for l in c)
        masks.append(mask)
        if len(c) == 2:
            x, y = c
            partners[x] = partners.get(x, 0) | bit[y]
            partners[y] = partners.get(y, 0) | bit[x]
        else:
            for l in c:
                others.setdefault(l, []).append(mask)
    falsified = sum(bit.get(Literal(f, not v), 0)
                    for f, v in assignment.items())
    if any(m & falsified == m for m in masks):
        return

    order = [f for f in fluents if f not in assignment]
    literal = [(Literal(f, False), Literal(f, True)) for f in order]
    # per depth and value: what assigning it falsifies, and the clauses
    # that could become violated by that
    checks = [[(bit.get(L.negate(), 0), partners.get(L.negate(), 0),
                others.get(L.negate(), ())) for L in pair]
              for pair in literal]
    pinned = [Literal(f, v) for f, v in assignment.items()]
    chosen: List[Literal] = [None] * len(order)  # type: ignore[list-item]
    falsified_at = [falsified] * (len(order) + 1)
    tried = [0] * len(order)  # values tried at each depth: 0, 1 or 2
    count = 0
    depth = 0
    while depth >= 0:
        if depth == len(order):
            count += 1
            if cap is not None and count > cap:
                raise TooManyInitialStates(
                    f"state enumeration exceeded cap {cap}")
            yield frozenset(pinned + chosen)
            depth -= 1
            continue
        value = tried[depth]
        if value == 2:
            tried[depth] = 0
            depth -= 1
            continue
        tried[depth] = value + 1
        lost, partner, other_masks = checks[depth][value]
        before = falsified_at[depth]
        if partner & before:
            continue
        after = before | lost
        if any(m & after == m for m in other_masks):
            continue
        chosen[depth] = literal[depth][value]
        falsified_at[depth + 1] = after
        depth += 1


def initial_states(problem: ConformantProblem,
                   cap: Optional[int] = DEFAULT_STATE_CAP) -> Tuple[State, ...]:
    """All complete consistent states satisfying the initial clauses."""
    return tuple(sorted(
        _enumerate_states(problem.init, problem.fluents, cap=cap),
        key=sorted_lits))


@dataclass(frozen=True)
class Verdict:
    valid: bool
    reason: str = ""
    failing_state: Optional[State] = None
    states_checked: int = 0

    def __bool__(self) -> bool:
        return self.valid


def conformant_check(problem: ConformantProblem, steps: Iterable[str],
                     cap: Optional[int] = DEFAULT_STATE_CAP) -> Verdict:
    """Is the (merge-free) action sequence a classical plan for P/s for
    every possible initial state s?"""
    steps = tuple(steps)
    plan = Plan(steps)
    checked = 0
    for s in initial_states(problem, cap):
        checked += 1
        result = run_plan(restrict(problem, s), plan)
        if not result.applicable:
            return Verdict(False, f"step {result.failed_step}: {result.error}",
                           s, checked)
        if not result.achieved_goal:
            missing = sorted_lits(problem.goal - result.final)
            return Verdict(False, f"goal literals not achieved: {missing}",
                           s, checked)
    return Verdict(True, "conformant", None, checked)


# --- 0-approximation --------------------------------------------------------

@dataclass(frozen=True)
class ThreeValuedState:
    """A partial state: literals known true; fluents with neither polarity
    present are unknown."""

    known: FrozenSet[Literal]

    def value(self, fluent: str) -> Optional[bool]:
        if pos(fluent) in self.known:
            return True
        if neg(fluent) in self.known:
            return False
        return None

    def holds(self, lits: Iterable[Literal]) -> bool:
        return all(l in self.known for l in lits)


def zero_approx_step(state: ThreeValuedState, action) -> ThreeValuedState:
    """One step of the weak (0-approximation) progression: L is true next
    iff some rule C -> L fires with C known, or L was known and every rule
    C' -> ~L has a condition literal known false."""
    known = state.known
    nxt: Set[Literal] = set()
    fluents = {r.effect.fluent for r in action.rules} | {l.fluent for l in known}
    for f in sorted(fluents):
        for L in (neg(f), pos(f)):
            supported = any(r.effect == L and state.holds(r.condition)
                            for r in action.rules)
            persists = L in known and all(
                any(l.negate() in known for l in r.condition)
                for r in action.rules if r.effect == L.negate())
            if supported or persists:
                nxt.add(L)
    for L in known:  # fluents untouched by the action persist trivially
        if L.fluent not in fluents:
            nxt.add(L)
    return ThreeValuedState(frozenset(l for l in nxt if l.negate() not in nxt))


def zero_approx_run(problem: ConformantProblem, steps: Iterable[str],
                    pi: Optional[PICNF] = None) -> Verdict:
    """Validate a plan under the weak semantics: start from the literals
    entailed by I, require preconditions known at every step, and require
    all goal literals known at the end."""
    if pi is None:
        pi = prime_implicates(problem.init, problem.fluents)
    state = ThreeValuedState(frozenset(
        l for l in pi.closure(frozenset()) if l.fluent in problem.fluents))
    for idx, name in enumerate(tuple(steps)):
        try:
            a = problem.action_by_name(name)
        except KeyError:
            return Verdict(False, f"step {idx}: unknown action {name}")
        if not a.deterministic:
            raise UnsupportedFeature(
                f"action {name} has nondeterministic effects")
        if not state.holds(a.preconditions):
            return Verdict(False, f"step {idx}: preconditions of {name} "
                                  "not known to hold")
        state = zero_approx_step(state, a)
    missing = sorted_lits(problem.goal - state.known)
    if missing:
        return Verdict(False, f"goal literals not known: {missing}")
    return Verdict(True, "valid under the weak semantics")


# --- exact belief-space search ----------------------------------------------

def belief_bfs(problem: ConformantProblem, depth_cap: int = 10,
               cap: Optional[int] = DEFAULT_STATE_CAP) -> Optional[Plan]:
    """Shortest conformant plan by breadth-first search over belief states
    (sets of possible states), or None within the depth cap.

    An action is applicable in a belief state iff its preconditions hold
    in every member state; it progresses every member in parallel.
    """
    states = initial_states(problem, cap)
    if not states:
        return None
    actions = sorted((a for a in problem.actions), key=lambda a: a.name)
    for a in actions:
        if not a.deterministic:
            raise UnsupportedFeature(
                f"action {a.name} has nondeterministic effects")
    init_belief = frozenset(states)

    def is_goal(belief: FrozenSet[State]) -> bool:
        return all(problem.goal <= s for s in belief)

    seen = {init_belief}
    queue = deque([(init_belief, ())])
    while queue:
        belief, steps = queue.popleft()
        if is_goal(belief):
            return Plan(tuple(steps))
        if len(steps) >= depth_cap:
            continue
        for a in actions:
            if not all(a.preconditions <= s for s in belief):
                continue
            succ = frozenset(apply(s, a) for s in belief)
            if succ in seen:
                continue
            seen.add(succ)
            queue.append((succ, steps + (a.name,)))
    return None


# --- relevance-restricted states and bases -----------------------------------

def rel_state(s: State, L: Literal, R: RelevanceGraph) -> FrozenSet[Literal]:
    """The part of a state that can matter for achieving L."""
    return frozenset(l for l in s if R.relevant(l, L))


@dataclass(frozen=True)
class Basis:
    """A set of initial states sufficient for conformance checking, with
    the (tag, target literal) pair that produced each one."""

    states: Tuple[State, ...]
    provenance: Tuple[Tuple[Tag, Literal, State], ...]

    def provenance_map(self) -> Dict[Tuple[Tag, Literal], State]:
        return {(t, L): s for t, L, s in self.provenance}


def build_basis(problem: ConformantProblem, spec: TranslationSpec,
                ctx: Optional[Context] = None) -> Basis:
    """For each merge target L and each tag t of a merge aimed at L, pick
    one possible initial state agreeing with t in which every literal
    relevant to L but not entailed under t is false.  Targets without a
    merge contribute one state for the empty tag.

    Requires the spec's merges to be covering; failure of the model search
    is a hard error (BasisStateNotFound), not a soft verdict.
    """
    ctx = ctx or build_context(problem)
    pi = ctx.pi
    work: List[Tuple[Tag, Literal]] = []
    targets_with_merges = {m.target for m in spec.merges}
    for m in spec.merges:
        for t in sorted(m.tags, key=sorted_lits):
            work.append((t, m.target))
    from .analysis import target_literals
    for L in target_literals(problem):
        if L not in targets_with_merges:
            work.append((frozenset(), L))

    provenance: List[Tuple[Tag, Literal, State]] = []
    states: Set[State] = set()
    for t, L in work:
        closure = pi.closure(t)
        forced = set(t)
        for lp in ctx.rel.relevant_to(L):
            if lp.fluent in problem.fluents and lp not in closure:
                forced.add(lp.negate())
        found = next(_enumerate_states(problem.init, problem.fluents,
                                       forced=sorted_lits(forced), cap=None),
                     None)
        if found is None:
            raise BasisStateNotFound(
                f"no possible initial state for tag {sorted_lits(t)} and "
                f"target {L}; initial clauses not in prime-implicate form "
                "or merge not covering")
        provenance.append((t, L, found))
        states.add(found)
    return Basis(tuple(sorted(states, key=sorted_lits)), tuple(provenance))
