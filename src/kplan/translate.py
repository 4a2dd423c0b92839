"""The tag/merge translation family from conformant to classical planning.

A translation is driven by a set of tags (assumption contexts: consistent
literal sets over initially-unknown fluents) and a set of merges (valid
tag collections that license reasoning by cases).  Each conditional
effect C -> L of the source problem becomes, per tag t, a support rule
KC/t -> KL/t and a cancellation rule ~K~C/t -> ~K~L/t; each merge (m, L)
becomes an action that concludes KL once KL/t holds for every t in m.

The module provides the concrete schemes (empty-tag only; all possible
initial states; models of the relevant clauses; bounded clause subsets),
the rewriting optimizations, CNF-goal compilation, and the
nondeterministic-effect front-end.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass, field, replace
from typing import (Dict, FrozenSet, Iterable, List, NamedTuple, Optional,
                    Set, Tuple)

from . import analysis
from .analysis import Context, build_context, cover, target_literals, width_of_literal
from .errors import (InvalidSpec, TooManyInitialStates, TooManyModels,
                     UnsupportedFeature, ValidityUndecidedAtCap, WidthSearchCap)
from .model import (
    Action,
    ClassicalProblem,
    Clause,
    ConformantProblem,
    Literal,
    NondetRule,
    Rule,
    conformant_problem,
    neg,
    pos,
    sorted_lits,
)
from .pi import EMPTY_TAG, Merge, PICNF, Tag

DEFAULT_S0_CAP = 4096
DEFAULT_MODELS_CAP = 4096

SEPARATOR = "__"
MERGE_PREFIX = "merge" + SEPARATOR
# the static-disjunction deduction action is internal like the merges, so
# its name carries the merge prefix and is stripped from reported plans
STATIC_ACTION_NAME = MERGE_PREFIX + "static-disjunctions"


def tag_suffix(tag: Tag) -> str:
    """What follows KL in the name of KL/t: a separator and a token per
    literal of t, in sorted order; nothing for the empty tag."""
    return "".join(SEPARATOR + l.token for l in sorted(tag))


def atom_name(base: Literal, tag: Tag = EMPTY_TAG) -> str:
    """The name of the classical fluent KL/t.  KL/empty prints as KL."""
    return "K" + base.token + tag_suffix(tag)


def tag_digest(tags: Iterable[Tag]) -> str:
    text = "|".join(",".join(l.token for l in sorted(t)) for t in
                    sorted(tags, key=sorted_lits))
    return hashlib.sha1(text.encode()).hexdigest()[:8]


def merge_action_name(m: Merge) -> str:
    return MERGE_PREFIX + m.target.token + SEPARATOR + tag_digest(m.tags)


@dataclass(frozen=True)
class TranslationSpec:
    """Tags and merges driving a translation, plus their provenance."""

    tags: Tuple[Tag, ...]
    merges: Tuple[Merge, ...]
    scheme: str
    trusted: bool = False  # merges constructed validity-preserving

    def __post_init__(self):
        if EMPTY_TAG not in self.tags:
            raise InvalidSpec("the empty tag must be among the tags")
        tags = set(self.tags)
        if any(not m.tags <= tags for m in self.merges):
            raise InvalidSpec("every merge tag must be among the tags")

    def merges_for(self, L: Literal) -> Tuple[Merge, ...]:
        return tuple(m for m in self.merges if m.target == L)


def make_spec(tags: Iterable[Tag], merges: Iterable[Merge], scheme: str,
              trusted: bool = False) -> TranslationSpec:
    all_tags = {EMPTY_TAG} | {frozenset(t) for t in tags}
    merges = tuple(sorted(set(merges), key=Merge.sort_key))
    for m in merges:
        all_tags |= set(m.tags)
    return TranslationSpec(tuple(sorted(all_tags, key=sorted_lits)),
                           merges, scheme, trusted)


# --- spec builders ----------------------------------------------------------

def spec_k0() -> TranslationSpec:
    return make_spec((), (), "k0", trusted=True)


def spec_ks0(ctx: Context, cap: int = DEFAULT_S0_CAP,
             include_all: bool = False) -> TranslationSpec:
    """Tags = the possible initial states (restricted to unknown fluents)."""
    unknown = set(ctx.pi.unknown_fluents())
    try:
        states = list(ctx.pi.models(ctx.problem.fluents, cap=cap))
    except ValidityUndecidedAtCap as exc:
        raise TooManyInitialStates(str(exc)) from exc
    tags = {frozenset(l for l in s if l.fluent in unknown) for s in states}
    tagset = frozenset(tags)
    merges = [Merge(tagset, L)
              for L in target_literals(ctx.problem, include_all)]
    return make_spec(tags, merges, "ks0", trusted=True)


def spec_kmodels(ctx: Context, cap: int = DEFAULT_MODELS_CAP,
                 include_all: bool = False) -> TranslationSpec:
    """One merge per target literal: the models of its relevant clauses."""
    merges = []
    for L in target_literals(ctx.problem, include_all):
        rcs = ctx.relevant_clause_set(L)
        if not rcs.clauses:
            continue
        variables = sorted({l.fluent for c in rcs.clauses for l in c})
        try:
            models = [m for m in ctx.pi.models(variables, extra=rcs.clauses,
                                               cap=cap)
                      if ctx.pi.tag_consistent(m)]
        except ValidityUndecidedAtCap as exc:
            raise TooManyModels(f"literal {L}: {exc}") from exc
        if models:
            merges.append(Merge(frozenset(models), L))
    return make_spec((), merges, "kmodels", trusted=True)


def spec_ki(ctx: Context, i: int, include_all: bool = False) -> TranslationSpec:
    """Bounded-width scheme: per target literal, the cover of the witness
    of its width search capped at i (the least clause subset of size <= i
    whose cover satisfies its relevant clauses); when its width exceeds i,
    one cover per size-i subset (sound but possibly incomplete)."""
    if i < 0:
        raise ValueError("i must be >= 0")
    merges: List[Merge] = []
    for L in target_literals(ctx.problem, include_all):
        try:
            _, witness = width_of_literal(ctx.ci, L, ctx.rel, ctx.pi, cap=i)
        except WidthSearchCap:
            pool = ctx.relevant_clause_set(L).extended
            for C in itertools.combinations(pool, i):
                cov = cover(C, ctx.pi)
                if frozenset(cov) != frozenset((EMPTY_TAG,)):
                    merges.append(Merge(frozenset(cov), L))
            continue
        if witness:  # empty when L has no relevant clauses
            merges.append(Merge(frozenset(cover(witness, ctx.pi)), L))
    return make_spec((), merges, f"ki:{i}", trusted=True)


# --- the core builder -------------------------------------------------------

class TagTable(NamedTuple):
    """What the builder knows of one tag t, computed once per translation."""

    closure: FrozenSet[Literal]     # t*
    names: Dict[Literal, str]       # L -> name of KL/t, or of KL if collapsed
    collapsed: FrozenSet[Literal]   # KL/t is KL (optimized only)
    emitted: FrozenSet[Literal]     # heads whose rules are kept at t
    decided: FrozenSet[str]         # fluents with a polarity in t*


def tag_table(t: Tag, ctx: Context, plain: Dict[Literal, str],
              merged: Iterable[Literal], optimized: bool) -> TagTable:
    """The table of tag t over the literals named in ``plain`` (L -> the
    name of KL), for a translation that merges the literals ``merged``
    through t.

    Every head keeps its rules unless optimizing at a non-empty t.  Then
    KL/t collapses onto KL when t* holds nothing relevant to L, i.e. L is
    reachable from no literal of t*, and the rules with head L are kept
    only when KL/t does not collapse and L is relevant to a literal merged
    through t.
    """
    closure = ctx.pi.closure(t)
    rel = ctx.rel
    collapsed: FrozenSet[Literal] = frozenset()
    emitted = frozenset(plain)
    if optimized and t:
        kept = set().union(*(rel.reachable_from(l) for l in closure))
        collapsed = emitted - kept
        useful = set().union(*(rel.relevant_to(L) for L in merged))
        emitted = emitted & kept & useful
    suffix = tag_suffix(t)
    names = {L: name if L in collapsed else name + suffix
             for L, name in plain.items()}
    return TagTable(closure, names, collapsed, emitted,
                    frozenset(l.fluent for l in closure))


def ktm(problem: ConformantProblem, spec: TranslationSpec,
        ctx: Optional[Context] = None, optimized: bool = False,
        validate: Optional[bool] = None) -> ClassicalProblem:
    """Build the classical problem induced by a tag/merge spec.

    With ``optimized`` the builder applies, in order: (1) tagged atoms
    whose tag closure carries nothing relevant to their literal collapse
    onto the untagged atom; (2) support/cancellation rules are dropped at
    tags through which nothing relevant to their head is merged; (3)
    support and cancellation collapse into one rule where the tag decides
    every fluent relevant to the head; (4) effects C,~L -> L of actions
    that never delete L yield the extra deduction rule KC -> KL; (5) each
    static disjunction yields case-elimination rules K~L_j (j != i) -> KL_i
    on a dedicated action.

    Every decision depends only on a literal and a tag, so it is read from
    a table per tag (``tag_table``) and a table per literal (the plain
    name KL and the fluents relevant to L), each computed once.
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

    plain = {L: atom_name(L) for L in analysis.all_literals(problem.fluents)}
    relevant_fluents = {L: frozenset(l.fluent for l in ctx.rel.relevant_to(L))
                        for L in plain}
    merged_through: Dict[Tag, Set[Literal]] = {}
    for m in spec.merges:
        for t in m.tags:
            merged_through.setdefault(t, set()).add(m.target)
    tables = [tag_table(t, ctx, plain, merged_through.get(t, ()), optimized)
              for t in spec.tags]
    # head literal -> the indexes of the tags that keep its rules
    kept_at: Dict[Literal, Set[int]] = {L: set() for L in plain}
    for k, tab in enumerate(tables):
        for L in tab.emitted:
            kept_at[L].add(k)

    fluents: Set[str] = set()
    init: Set[Literal] = set()
    for tab in tables:
        fluents.update(tab.names.values())
        for L in tab.closure:
            if L.fluent in problem.fluents:
                init.add(pos(tab.names[L]))

    goal = frozenset(pos(plain[L]) for L in problem.goal)

    actions: List[Action] = []
    for a in problem.actions:
        rules: Set[Rule] = set()
        for r in a.rules:
            L = r.effect
            nL = L.negate()
            negated_cond = [c.negate() for c in r.condition]
            relevant = relevant_fluents[L]
            support_at = kept_at[L]
            cancel_at = kept_at[nL]
            for k in support_at | cancel_at:
                tab = tables[k]
                names = tab.names
                support_cond = frozenset(pos(names[c]) for c in r.condition)
                if optimized and relevant <= tab.decided:
                    # grouped support + cancellation
                    rules.add(Rule(support_cond, pos(names[L])))
                    rules.add(Rule(support_cond, Literal(names[nL], False)))
                    continue
                if k in support_at:
                    rules.add(Rule(support_cond, pos(names[L])))
                if k in cancel_at:
                    cancel_cond = frozenset(Literal(names[c], False)
                                            for c in negated_cond)
                    rules.add(Rule(cancel_cond, Literal(names[nL], False)))
        if optimized:
            # extra deduction: a: C,~L -> L with no a-rule deleting L
            heads = {r.effect for r in a.rules}
            for r in a.rules:
                L = r.effect
                if L.negate() in r.condition and L.negate() not in heads:
                    cond = frozenset(pos(plain[c])
                                     for c in r.condition if c != L.negate())
                    rules.add(Rule(cond, pos(plain[L])))
        precs = frozenset(pos(plain[L]) for L in a.preconditions)
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
                cond = frozenset(pos(plain[o.negate()]) for o in c if o != l)
                static_rules.add(Rule(cond, pos(plain[l])))
        if static_rules:
            # pure deduction: bookkeeping like a merge, stripped from plans
            actions.append(Action(STATIC_ACTION_NAME, frozenset(),
                                  tuple(sorted(static_rules,
                                               key=Rule.sort_key))))
            merge_names.add(STATIC_ACTION_NAME)

    table_of = dict(zip(spec.tags, tables))
    for m in spec.merges:
        name = merge_action_name(m)
        if name in merge_names:
            continue
        merge_names.add(name)
        cond = frozenset(pos(table_of[t].names[m.target]) for t in m.tags)
        effects = [Rule(cond, pos(plain[m.target]))]
        for other in sorted(ctx.mutexes.mutex_with(m.target)):
            if other == m.target.negate():
                continue
            effects.append(Rule(cond, pos(plain[other.negate()])))
        actions.append(Action(name, frozenset(), tuple(effects)))

    actions.sort(key=lambda a: a.name)
    return ClassicalProblem(frozenset(fluents), frozenset(init),
                            tuple(actions), goal, frozenset(merge_names))


# --- CNF goal compilation -----------------------------------------------

def cnf_goal_compile(problem: ConformantProblem) -> ConformantProblem:
    """Replace clause goals by fresh goal atoms set by once-executable
    evaluation actions (one per clause, gated by a consumed enabler)."""
    if not problem.goal_clauses:
        return problem
    fluents = set(problem.fluents)
    init = list(problem.init)
    actions = list(problem.actions)
    goal = set(problem.goal)
    clauses = sorted(problem.goal_clauses, key=sorted_lits)
    for idx, c in enumerate(clauses):
        gatom = f"goal-c{idx}"
        enabler = f"goal-e{idx}"
        fluents |= {gatom, enabler}
        init.append(frozenset((neg(gatom),)))
        init.append(frozenset((pos(enabler),)))
        rules = [Rule(frozenset(), neg(enabler))]
        rules += [Rule(frozenset((l,)), pos(gatom)) for l in sorted(c)]
        actions.append(Action(f"eval-goal-c{idx}", frozenset((pos(enabler),)),
                              tuple(rules)))
        goal.add(pos(gatom))
    return conformant_problem(fluents, init, actions, goal)


# --- nondeterministic front-end -------------------------------------------

@dataclass(frozen=True)
class NondetInfo:
    """Reset bookkeeping: reset action name -> its copy's hidden fluents."""

    resets: Tuple[Tuple[str, Tuple[str, ...]], ...] = ()
    copies: int = 1

    def reset_map(self) -> Dict[str, Tuple[str, ...]]:
        return dict(self.resets)


def nondet_compile(problem: ConformantProblem,
                   copies: int = 1) -> Tuple[ConformantProblem, NondetInfo]:
    """Determinize oneof effects with hidden outcome-selector fluents.

    Each nondeterministic action yields ``copies`` single-use deterministic
    copies: copy k resolves every oneof through fresh hidden fluents
    constrained by a oneof clause in I, is gated by an ``enabled`` fluent it
    consumes, and gets a reset action that re-enables it.  The reset's
    knowledge-erasing conditional effects live at the classical level and
    are injected after translation (see inject_reset_effects).
    """
    if copies < 1:
        raise ValueError("copies must be >= 1")
    if problem.deterministic:
        return problem, NondetInfo((), copies)
    fluents = set(problem.fluents)
    init = list(problem.init)
    actions: List[Action] = []
    resets: List[Tuple[str, Tuple[str, ...]]] = []
    for a in sorted(problem.actions, key=lambda x: x.name):
        if a.deterministic:
            actions.append(a)
            continue
        for k in range(1, copies + 1):
            name = f"{a.name}-c{k}"
            enabler = f"enabled-{name}"
            fluents.add(enabler)
            init.append(frozenset((pos(enabler),)))
            rules = list(a.rules)
            rules.append(Rule(frozenset(), neg(enabler)))
            hidden_all: List[str] = []
            for ridx, nr in enumerate(a.nondet_rules):
                hidden = [f"h-{name}-r{ridx}-o{o}"
                          for o in range(len(nr.outcomes))]
                hidden_all += hidden
                fluents |= set(hidden)
                init.append(frozenset(pos(h) for h in hidden))
                for h1, h2 in itertools.combinations(hidden, 2):
                    init.append(frozenset((neg(h1), neg(h2))))
                for h, outcome in zip(hidden, nr.outcomes):
                    for lit in sorted(outcome):
                        rules.append(Rule(nr.condition | {pos(h)}, lit))
            actions.append(Action(name, a.preconditions | {pos(enabler)},
                                  tuple(rules)))
            reset_name = f"reset-{name}"
            actions.append(Action(reset_name, frozenset(),
                                  (Rule(frozenset(), pos(enabler)),)))
            resets.append((reset_name, tuple(hidden_all)))
    compiled = conformant_problem(fluents, init, actions, problem.goal,
                                  problem.goal_clauses)
    return compiled, NondetInfo(tuple(resets), copies)


def inject_reset_effects(K: ClassicalProblem, compiled: ConformantProblem,
                         spec: TranslationSpec,
                         info: NondetInfo) -> ClassicalProblem:
    """Add the knowledge-erasing effects to each reset action: for every
    tag t mentioning the copy's hidden fluents and every literal L,
    KL -> KL/t and ~KL -> ~KL/t (assumption-dependent knowledge is reset
    to the unconditional knowledge)."""
    reset_map = info.reset_map()
    if not reset_map:
        return K
    lits = analysis.all_literals(compiled.fluents)
    new_actions = []
    for a in K.actions:
        hidden = reset_map.get(a.name)
        if hidden is None:
            new_actions.append(a)
            continue
        hidden_set = set(hidden)
        rules = set(a.rules)
        for t in spec.tags:
            if not any(l.fluent in hidden_set for l in t):
                continue
            for L in lits:
                if L.fluent in hidden_set:
                    # assumption-internal knowledge (what the hidden
                    # selectors themselves look like under the tag) is
                    # static and must survive the reset
                    continue
                tagged = atom_name(L, t)
                plain = atom_name(L, EMPTY_TAG)
                if tagged not in K.fluents or tagged == plain:
                    continue
                rules.add(Rule(frozenset((pos(plain),)), pos(tagged)))
                rules.add(Rule(frozenset((Literal(plain, False),)),
                               Literal(tagged, False)))
        new_actions.append(Action(a.name, a.preconditions,
                                  tuple(sorted(rules, key=Rule.sort_key))))
    return replace(K, actions=tuple(new_actions))
