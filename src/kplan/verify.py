"""Ground-truth oracles for plan validation.

Everything here is deliberately brute force and cap-guarded: exact
possible-initial-state enumeration, per-state plan checking, the
0-approximation (the progression of the set of literals known true),
exact belief-space breadth-first search, and basis construction.  The
planning pipeline is tested against these oracles, never the other way
around.
"""

from __future__ import annotations

from collections import deque
from typing import (FrozenSet, Iterable, Iterator, List, NamedTuple, Optional,
                    Set, Tuple)

from .analysis import Context, build_context, masked, target_literals
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
    restrict,
    run_plan,
    sorted_lits,
    state_satisfies,
)
from .pi import DEFAULT_STATE_CAP, Tag, enumerate_models, prime_implicates
from .translate import TranslationSpec


def _each_initial_state(problem: ConformantProblem,
                        cap: Optional[int]) -> Iterator[State]:
    """The states of ``initial_states``, one at a time; raises
    TooManyInitialStates past ``cap``."""
    try:
        # enumerate_models yields the states in sorted_lits order
        yield from enumerate_models(problem.init, problem.fluents, cap=cap)
    except ValidityUndecidedAtCap as exc:
        raise TooManyInitialStates(
            f"state enumeration exceeded cap {cap}") from exc


def initial_states(problem: ConformantProblem,
                   cap: Optional[int] = DEFAULT_STATE_CAP) -> Tuple[State, ...]:
    """All complete consistent states satisfying the initial clauses."""
    return tuple(_each_initial_state(problem, cap))


class Verdict(NamedTuple):
    valid: bool
    reason: str = ""
    failing_state: Optional[State] = None
    states_checked: int = 0

    def __bool__(self) -> bool:
        return self.valid


def conformant_check(problem: ConformantProblem, steps: Iterable[str],
                     cap: Optional[int] = DEFAULT_STATE_CAP) -> Verdict:
    """Is the (merge-free) action sequence a classical plan for P/s for
    every possible initial state s, goal clauses included?  The states
    are checked as they are enumerated, and only counted after a failing
    one, so that past ``cap`` TooManyInitialStates is raised regardless."""
    states = _each_initial_state(problem, cap)
    verdict = _check_states(problem, Plan(tuple(steps)), states)
    for _ in states:
        pass
    return verdict


def _check_states(problem: ConformantProblem, plan: Plan,
                  states: Iterable[State]) -> Verdict:
    checked = 0
    for s in states:
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

def zero_approx_step(known: FrozenSet[Literal],
                     action) -> FrozenSet[Literal]:
    """One step of the weak (0-approximation) progression over the
    literals known true: L is known next iff some rule C -> L has C
    known, or L was known and every rule C' -> ~L has a condition literal
    known false.  A complementary pair of such literals becomes unknown."""
    added = {r.effect for r in action.rules if r.condition <= known}
    threatened = {r.effect.negate() for r in action.rules
                  if not any(l.negate() in known for l in r.condition)}
    nxt = added | (known - threatened)
    return frozenset(l for l in nxt if l.negate() not in nxt)


def zero_approx_run(problem: ConformantProblem,
                    steps: Iterable[str]) -> Verdict:
    """Validate a plan under the weak semantics: start from the literals
    entailed by I (its prime-implicate units), require preconditions
    known at every step, and require all goal literals, and a literal of
    every goal clause, known at the end."""
    known = prime_implicates(problem.init, problem.fluents).units
    for idx, name in enumerate(tuple(steps)):
        try:
            a = problem.action_by_name(name)
        except KeyError:
            return Verdict(False, f"step {idx}: unknown action {name}")
        if not a.deterministic:
            raise UnsupportedFeature(
                f"action {name} has nondeterministic effects")
        if not a.preconditions <= known:
            return Verdict(False, f"step {idx}: preconditions of {name} "
                                  "not known to hold")
        known = zero_approx_step(known, a)
    missing = sorted_lits(problem.goal - known)
    if missing:
        return Verdict(False, f"goal literals not known: {missing}")
    unknown = [sorted_lits(c) for c in problem.goal_clauses if not known & c]
    if unknown:
        return Verdict(False, f"goal clauses not known to hold: {unknown}")
    return Verdict(True, "valid under the weak semantics")


# --- exact belief-space search ----------------------------------------------

def belief_bfs(problem: ConformantProblem,
               depth_cap: int = 10) -> Optional[Plan]:
    """Shortest conformant plan by breadth-first search over belief states
    (sets of possible states), or None within the depth cap.

    An action is applicable in a belief state iff its preconditions hold
    in every member state; it progresses every member in parallel.
    """
    states = initial_states(problem)
    if not states:
        return None
    actions = sorted((a for a in problem.actions), key=lambda a: a.name)
    for a in actions:
        if not a.deterministic:
            raise UnsupportedFeature(
                f"action {a.name} has nondeterministic effects")
    init_belief = frozenset(states)

    def is_goal(belief: FrozenSet[State]) -> bool:
        return all(problem.goal <= s
                   and state_satisfies(s, problem.goal_clauses)
                   for s in belief)

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


# --- bases -------------------------------------------------------------------

class Basis(NamedTuple):
    """A set of initial states sufficient for conformance checking, with
    the (tag, target literal) pair that produced each one."""

    states: Tuple[State, ...]
    provenance: Tuple[Tuple[Tag, Literal, State], ...]


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
    for L in target_literals(problem):
        if L not in targets_with_merges:
            work.append((frozenset(), L))

    provenance: List[Tuple[Tag, Literal, State]] = []
    states: Set[State] = set()
    for t, L in work:
        closure = pi.closure(t)
        pins = set(t).union(
            lp.negate() for lp in masked(ctx.rel.lits, ctx.rel.relevant[L])
            if lp not in closure)
        # each pin is a unit clause after I's: the first model is the
        # least one of I agreeing with every pin
        found = next(enumerate_models(
            problem.init + tuple(frozenset((l,)) for l in pins),
            problem.fluents, cap=None), None)
        if found is None:
            raise BasisStateNotFound(
                f"no possible initial state for tag {sorted_lits(t)} and "
                f"target {L}; initial clauses not in prime-implicate form "
                "or merge not covering")
        provenance.append((t, L, found))
        states.add(found)
    return Basis(tuple(sorted(states, key=sorted_lits)), tuple(provenance))
