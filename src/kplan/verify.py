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
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from .analysis import Context, RelevanceGraph, build_context
from .errors import (
    BasisStateNotFound,
    TooManyInitialStates,
    UnsupportedFeature,
    ValidityUndecidedAtCap,
)
from .model import (
    ConformantProblem,
    Literal,
    Plan,
    State,
    apply,
    neg,
    pos,
    restrict,
    run_plan,
    sorted_lits,
    state_satisfies,
)
from .pi import PICNF, Tag, enumerate_models, prime_implicates
from .translate import TranslationSpec

DEFAULT_STATE_CAP = 4096


def initial_states(problem: ConformantProblem,
                   cap: Optional[int] = DEFAULT_STATE_CAP) -> Tuple[State, ...]:
    """All complete consistent states satisfying the initial clauses."""
    try:
        states = list(enumerate_models(problem.init, problem.fluents, cap=cap))
    except ValidityUndecidedAtCap as exc:
        raise TooManyInitialStates(
            f"state enumeration exceeded cap {cap}") from exc
    return tuple(sorted(states, key=sorted_lits))


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
    every possible initial state s, goal clauses included?"""
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
        unsatisfied = [sorted_lits(c) for c in problem.goal_clauses
                       if not result.final & c]
        if unsatisfied:
            return Verdict(False, f"goal clauses not satisfied: {unsatisfied}",
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
    all goal literals, and a literal of every goal clause, known at the
    end."""
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
    unknown = [sorted_lits(c) for c in problem.goal_clauses
               if not state.known & c]
    if unknown:
        return Verdict(False, f"goal clauses not known to hold: {unknown}")
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
        found = next(enumerate_models(problem.init, problem.fluents,
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
