"""Ground problem representation and exact progression semantics.

States are complete, consistent literal sets (not truth assignments), and
action application follows the add/delete formulation: the literals added
are the heads of the conditional effects whose conditions hold, and the
complements of the added literals are deleted.  Everything here is
immutable and deterministic; collections are kept in canonical sorted
order so downstream output is byte-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterable, NamedTuple, Tuple

from .errors import (
    InconsistentResult,
    NotAPossibleInitialState,
    PreconditionViolation,
    UnsupportedFeature,
)


class Literal(NamedTuple):
    """A fluent with a sign.  Ordering is (fluent, sign), negatives first.

    A plain tuple subclass, so hashing, equality and ordering run in C;
    a Literal equals the tuple ``(fluent, positive)``.
    """

    fluent: str
    positive: bool = True

    def negate(self) -> "Literal":
        # tuple.__new__ skips the NamedTuple constructor's argument
        # handling, about half the cost of a call
        return tuple.__new__(Literal, (self[0], not self[1]))

    @property
    def token(self) -> str:
        """Printable identifier; safe for use inside emitted atom names."""
        return self.fluent if self.positive else "not-" + self.fluent

    def __str__(self) -> str:
        return self.fluent if self.positive else "~" + self.fluent

    __repr__ = __str__


def pos(fluent: str) -> Literal:
    return Literal(fluent, True)


def neg(fluent: str) -> Literal:
    return Literal(fluent, False)


# Clauses, tags and states are all plain frozensets of literals; the
# wrapper aliases only document intent.
Clause = FrozenSet[Literal]
State = FrozenSet[Literal]


def sorted_lits(lits: Iterable[Literal]) -> Tuple[Literal, ...]:
    return tuple(sorted(lits))


def lits_consistent(lits: Iterable[Literal]) -> bool:
    # distinct literals on one fluent are complementary
    s = set(lits)
    return len({l.fluent for l in s}) == len(s)


def is_tautology(c: Clause) -> bool:
    return any(l.negate() in c for l in c)


class Rule(NamedTuple):
    """Conditional effect C -> L.  An empty condition fires always.

    The condition must be consistent.  Rules built from outside are
    checked by ``rule`` and by ConformantProblem; the translations build
    consistent ones and construct Rule directly.
    """

    condition: FrozenSet[Literal]
    effect: Literal

    def sort_key(self):
        return (sorted(self.condition), self.effect)

    def __str__(self):
        cond = ",".join(map(str, sorted_lits(self.condition))) or "true"
        return f"{cond} -> {self.effect}"


def _check_rule(r: Rule) -> Rule:
    if not lits_consistent(r.condition):
        raise ValueError(f"rule condition has a complementary pair: {r}")
    return r


@dataclass(frozen=True)
class NondetRule:
    """Nondeterministic effect C -> oneof(S_1, ..., S_m).

    Only the nondeterministic front-end consumes these; the deterministic
    core refuses actions that still carry them.
    """

    condition: FrozenSet[Literal]
    outcomes: Tuple[FrozenSet[Literal], ...]

    def __post_init__(self):
        if len(self.outcomes) < 2:
            raise ValueError("oneof effect needs at least two outcomes")


class Action(NamedTuple):
    name: str
    preconditions: FrozenSet[Literal] = frozenset()
    rules: Tuple[Rule, ...] = ()
    nondet_rules: Tuple[NondetRule, ...] = ()

    @property
    def deterministic(self) -> bool:
        return not self.nondet_rules


@dataclass(frozen=True)
class ConformantProblem:
    """P = <F, I, O, G>: fluents, initial clauses, actions, goal literals.

    Fluents absent from I are unknown initially (both polarities possible);
    there is no closed-world completion at this level.  The goal may also be
    given in CNF (``goal_clauses``); the translation front-end compiles
    clause goals away before any scheme runs.
    """

    fluents: FrozenSet[str]
    init: Tuple[Clause, ...]
    actions: Tuple[Action, ...]
    goal: FrozenSet[Literal]
    goal_clauses: Tuple[Clause, ...] = ()

    def __post_init__(self):
        for c in self.init:
            if not c:
                raise ValueError("empty clause in init")
        names = [a.name for a in self.actions]
        if len(set(names)) != len(names):
            raise ValueError("duplicate action names")
        mentioned = set()
        for c in self.init:
            mentioned |= {l.fluent for l in c}
        for a in self.actions:
            mentioned |= {l.fluent for l in a.preconditions}
            for r in a.rules:
                _check_rule(r)
                mentioned.add(r.effect.fluent)
                mentioned |= {l.fluent for l in r.condition}
            for r in a.nondet_rules:
                mentioned |= {l.fluent for l in r.condition}
                for out in r.outcomes:
                    mentioned |= {l.fluent for l in out}
        mentioned |= {l.fluent for l in self.goal}
        for c in self.goal_clauses:
            mentioned |= {l.fluent for l in c}
        if not mentioned <= set(self.fluents):
            raise ValueError(
                f"literals mention undeclared fluents: {sorted(mentioned - set(self.fluents))}")

    @property
    def deterministic(self) -> bool:
        return all(a.deterministic for a in self.actions)

    def action_by_name(self, name: str) -> Action:
        for a in self.actions:
            if a.name == name:
                return a
        raise KeyError(name)


def conformant_problem(fluents, init, actions, goal, goal_clauses=()):
    """Canonicalizing constructor: sorts clauses and actions stably."""
    init = tuple(sorted((frozenset(c) for c in init), key=sorted_lits))
    actions = tuple(sorted(actions, key=lambda a: a.name))
    return ConformantProblem(frozenset(fluents), init, actions,
                             frozenset(goal), tuple(goal_clauses))


MERGE_PREFIX = "merge__"


def is_merge(name: str) -> bool:
    """Is the named action a translation's reasoning-by-cases bookkeeping?
    Such actions cost nothing and are stripped from plans."""
    return name.startswith(MERGE_PREFIX)


@dataclass(frozen=True)
class ClassicalProblem:
    """Classical planning problem with conditional effects.

    ``init`` lists the literals true initially; fluents it leaves
    unmentioned are false (closed world at the classical level).  Actions
    whose names start with ``MERGE_PREFIX`` are reasoning-by-cases actions
    introduced by a translation; they are stripped from plans before
    validation.
    """

    fluents: FrozenSet[str]
    init: FrozenSet[Literal]
    actions: Tuple[Action, ...]
    goal: FrozenSet[Literal]

    def __post_init__(self):
        if not lits_consistent(self.init):
            raise ValueError("classical init contains a complementary pair")

    @property
    def merges(self) -> FrozenSet[str]:
        return frozenset(a.name for a in self.actions if is_merge(a.name))

    def initial_state(self) -> State:
        """Complete the init literals with closed-world negatives."""
        given = {l.fluent: l for l in self.init}
        return frozenset(given.get(f, neg(f)) for f in self.fluents)

    action_by_name = ConformantProblem.action_by_name


class Plan(NamedTuple):
    """An action-name sequence."""

    steps: Tuple[str, ...]

    def stripped(self) -> Tuple[str, ...]:
        """Drop the merge steps, leaving a plan over source actions."""
        return tuple(s for s in self.steps if not is_merge(s))

    @property
    def stripped_length(self) -> int:
        return len(self.stripped())

    def __len__(self):
        # the steps, not the fields: NamedTuple's _make and _replace check
        # len(), so they fail here; build a new Plan instead
        return len(self.steps)


# --- progression ----------------------------------------------------------

def apply(s: State, a: Action) -> State:
    """Progress a complete state through a deterministic action."""
    if not a.deterministic:
        raise UnsupportedFeature(
            f"action {a.name} has nondeterministic effects; compile them away first")
    missing = a.preconditions - s
    if missing:
        raise PreconditionViolation(
            f"action {a.name}: preconditions not satisfied: {sorted_lits(missing)}")
    add = {r.effect for r in a.rules if r.condition <= s}
    if not lits_consistent(add):
        bad = sorted(l.fluent for l in add if l.negate() in add)
        raise InconsistentResult(
            f"action {a.name} adds complementary literals on fluents {bad}")
    delete = {l.negate() for l in add}
    return frozenset((s - delete) | add)


class RunResult(NamedTuple):
    applicable: bool
    final: State
    achieved_goal: bool
    failed_step: int = -1
    error: str = ""


def run_plan(problem: ClassicalProblem, plan: Plan) -> RunResult:
    """Execute a plan from the problem's initial state.

    Failure is encoded in the result rather than raised, except for
    InconsistentResult which propagates (it indicates a broken problem,
    not a bad plan).
    """
    s = problem.initial_state()
    for idx, name in enumerate(plan.steps):
        try:
            a = problem.action_by_name(name)
        except KeyError:
            return RunResult(False, s, False, idx, f"unknown action {name}")
        try:
            s = apply(s, a)
        except PreconditionViolation as exc:
            return RunResult(False, s, False, idx, str(exc))
    return RunResult(True, s, problem.goal <= s)


def state_satisfies(s: State, clauses: Iterable[Clause]) -> bool:
    return all(s & c for c in clauses)


def restrict(problem: ConformantProblem, s: State) -> ClassicalProblem:
    """P/s: the classical problem obtained by fixing the initial state."""
    if {l.fluent for l in s} != set(problem.fluents) or not lits_consistent(s):
        raise NotAPossibleInitialState("state is not complete and consistent over F")
    if not state_satisfies(s, problem.init):
        raise NotAPossibleInitialState("state violates the initial clauses")
    return ClassicalProblem(problem.fluents, frozenset(s), problem.actions,
                            problem.goal)
