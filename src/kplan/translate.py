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
from dataclasses import dataclass, replace
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from .analysis import (Context, build_context, cover, masked,
                       target_literals, width_of_literal)
from .errors import (InvalidSpec, TooManyInitialStates, TooManyModels,
                     UnsupportedFeature, ValidityUndecidedAtCap, WidthSearchCap)
from .model import (
    Action,
    ClassicalProblem,
    ConformantProblem,
    Literal,
    MERGE_PREFIX,
    Rule,
    conformant_problem,
    neg,
    pos,
    sorted_lits,
)
from .pi import DEFAULT_MODEL_CAP, DEFAULT_STATE_CAP, EMPTY_TAG, Merge, Tag

SEPARATOR = "__"


def atom_name(base: Literal, tag: Tag = EMPTY_TAG) -> str:
    """The name of the classical fluent KL/t: K, the token of L, and a
    separator and a token per literal of t, in sorted order.  KL/empty
    prints as KL."""
    return "K" + base.token + "".join(SEPARATOR + l.token
                                      for l in sorted(tag))


def tag_digest(tags: Iterable[Tag]) -> str:
    text = "|".join(",".join(l.token for l in sorted(t)) for t in
                    sorted(tags, key=sorted_lits))
    return hashlib.sha1(text.encode()).hexdigest()[:8]


def merge_action_name(m: Merge) -> str:
    return MERGE_PREFIX + m.target.token + SEPARATOR + tag_digest(m.tags)


@dataclass(frozen=True)
class TranslationSpec:
    """Tags and merges driving a translation."""

    tags: Tuple[Tag, ...]
    merges: Tuple[Merge, ...]
    trusted: bool = False  # merges constructed validity-preserving

    def __post_init__(self):
        if EMPTY_TAG not in self.tags:
            raise InvalidSpec("the empty tag must be among the tags")
        tags = set(self.tags)
        if any(not m.tags <= tags for m in self.merges):
            raise InvalidSpec("every merge tag must be among the tags")


def make_spec(tags: Iterable[Tag], merges: Iterable[Merge],
              trusted: bool = False) -> TranslationSpec:
    all_tags = {EMPTY_TAG} | {frozenset(t) for t in tags}
    merges = tuple(sorted(set(merges), key=Merge.sort_key))
    for m in merges:
        all_tags |= set(m.tags)
    return TranslationSpec(tuple(sorted(all_tags, key=sorted_lits)),
                           merges, trusted)


# --- spec builders ----------------------------------------------------------

def spec_k0() -> TranslationSpec:
    return make_spec((), (), trusted=True)


def spec_ks0(ctx: Context, cap: int = DEFAULT_STATE_CAP) -> TranslationSpec:
    """Tags = the possible initial states, restricted to the unknown
    fluents.  The units fix the known fluents, so each model of I over the
    unknown ones is exactly one initial state, and ``cap`` counts states."""
    try:
        tags = frozenset(ctx.pi.models(ctx.pi.unknown_fluents(), cap=cap))
    except ValidityUndecidedAtCap as exc:
        raise TooManyInitialStates(str(exc)) from exc
    merges = [Merge(tags, L) for L in target_literals(ctx.problem)]
    return make_spec(tags, merges, trusted=True)


def spec_kmodels(ctx: Context, cap: int = DEFAULT_MODEL_CAP,
                 include_all: bool = False) -> TranslationSpec:
    """One merge per target literal: the models of I over the variables of
    its relevant clauses (exact, and never empty, as I is consistent),
    enumerated once per set of variables."""
    merges = []
    models: Dict[FrozenSet[str], FrozenSet[Tag]] = {}
    for L in target_literals(ctx.problem, include_all):
        clauses = ctx.relevant_clause_set(L).clauses
        if not clauses:
            continue
        variables = frozenset(l.fluent for c in clauses for l in c)
        if variables not in models:
            try:
                models[variables] = frozenset(ctx.pi.models(variables, cap=cap))
            except ValidityUndecidedAtCap as exc:
                raise TooManyModels(f"literal {L}: {exc}") from exc
        merges.append(Merge(models[variables], L))
    return make_spec((), merges, trusted=True)


def spec_ki(ctx: Context, i: int, include_all: bool = False,
            widths: Optional[Dict] = None) -> TranslationSpec:
    """Bounded-width scheme: per target literal, the cover of the witness
    of its width search capped at i (the least clause subset of size <= i
    whose cover satisfies its relevant clauses); when its width exceeds i,
    one cover per size-i subset (sound but possibly incomplete).  When
    given, ``widths`` receives L -> (width, witness) for each target L of
    width <= i: what an uncapped search would find."""
    if i < 0:
        raise ValueError("i must be >= 0")
    merges: List[Merge] = []
    for L in target_literals(ctx.problem, include_all):
        try:
            found = width_of_literal(ctx.ci, L, ctx.rel, ctx.pi, cap=i)
        except WidthSearchCap:
            pool = ctx.relevant_clause_set(L).extended
            for C in itertools.combinations(pool, i):
                cov = cover(C, ctx.pi)
                if frozenset(cov) != frozenset((EMPTY_TAG,)):
                    merges.append(Merge(frozenset(cov), L))
            continue
        if widths is not None:
            widths[L] = found
        witness = found[1]
        if witness:  # empty when L has no relevant clauses
            merges.append(Merge(frozenset(cover(witness, ctx.pi)), L))
    return make_spec((), merges, trusted=True)


# --- the core builder -------------------------------------------------------

def projections(t: Tag, ctx: Context, wanted: int = -1
                ) -> Tuple[int, Dict[Literal, int]]:
    """The mask of the literals of t* outside the closure of the empty
    tag (``pi.units``, as I is in prime-implicate form), and L -> the
    projection of t onto L, those of them relevant to L, for each literal
    L (of the mask ``wanted``) where it is not empty, as masks over
    ``ctx.rel``'s literals.  Only these literals of t* can make KL/t
    differ from KL.  Under the rewrites ``ktm`` names KL/t as KL/p for
    this p, and ``inject_reset_effects`` resets the atoms so named."""
    lits, bit, relevant, reachable = ctx.rel
    extra = ctx.pi.closure(t) - ctx.pi.units
    mask = sum(map(bit.__getitem__, extra))
    reach = 0
    for r in map(reachable.__getitem__, extra):
        reach |= r
    return mask, {L: mask & relevant[L] for L in masked(lits, reach & wanted)}


def changed_fluents(problem: ConformantProblem) -> Set[str]:
    """The fluents that some rule sets; a literal of any other is
    relevant to itself alone."""
    return {r.effect.fluent for a in problem.actions for r in a.rules}


def _describe(lits: List[Literal], L: Literal, p: int) -> str:
    tag = ", ".join(map(str, masked(lits, p)))
    return f"{L} under the tag {{{tag}}}" if p else str(L)


def ktm(problem: ConformantProblem, spec: TranslationSpec,
        ctx: Optional[Context] = None,
        optimized: bool = False) -> ClassicalProblem:
    """Build the classical problem induced by a tag/merge spec.

    Without ``optimized`` this is the literal K_T,M translation, the
    default; ``kplan translate`` and ``kplan solve`` only build the
    rewritten one, which ``simplify`` then shrinks.  With ``optimized``
    the builder applies five rewrites.  (2), (4) and (5) only keep the
    build small: ``simplify``, which runs after it, reaches the same final
    encodings without them, but for the name of an atom: without (5), on
    3 of 1800 random ``ks0`` problems (suites 1, 2, 3 and 4242 with
    reachable goals), it keeps one of two equivalent atoms under the
    other's name.
    (1) KL/t is built once per projection p of t onto L: the literals of
    t* outside the closure of the empty tag that are relevant to L.  Each
    condition c of a rule with head L has relevant_to(c) within
    relevant_to(L), and so do ~c and ~L, as the relevance edges come in
    complementary pairs; and L is in t* exactly when it is in p or in the
    closure of the empty tag.  So, by induction over a plan, all tags with
    one projection give KL/t one value in every reachable state, and an
    empty p gives it the value of KL.  KL/t is named KL/p, KL when p is
    empty, and equal rules are one.  Without it (KL/t for every t),
    before (4), square-center-8 ``ks0`` built 2080 atoms and 7300
    effects instead of 288 and 1028, disjtoy-9 ``ks0`` 5130 atoms instead
    of 540 and safe-40 ``ki:1`` 1722 instead of 162, and the
    square-center-8 translate process peaked at 29.9 MB instead of
    22.4 MB.  On oneof input it also changes the search, because the
    resets write the tagged atoms:
    sgripper-3 searches 70 atoms and 282 effects instead of 68 and 274.
    (2) support/cancellation rules are dropped at tags through which
    nothing relevant to their head is merged.  Without it, bomb-16-16
    ``ki:1`` built 1120 atoms and 18736 effects instead of 128 and 2352
    (before (4) took the latter to 96 and 1328), and ``ktm`` took about
    seven times as long.
    (3) effects C,~L -> L of actions that never delete L yield the extra
    deduction rule KC -> KL.  This one changes the search: without it,
    the ``ki:1`` search of bomb-12-4 expands 63124 nodes instead of 116.
    (4) A literal c that no source rule sets, and whose atom Kc no merge
    sets (as its target, or as the complement of a literal mutex with
    it), is folded.  Each atom Kc/p starts true iff c is in p or the
    units, and never becomes true after the start: no support rule, merge
    or deduction rule sets it, and a reset copies it only from Kc, which
    never becomes true either.  So a support rule with a conjunct Kc/p
    that starts false is not built, nor a cancellation rule that deletes
    an atom Kc/p that starts false, and a conjunct ~Kc/p of such an atom
    always holds and is left out.  When no rule sets ~c either, Kc/p
    (then Kc/{c} or Kc, as c is relevant to itself alone) never changes:
    a conjunct Kc/p that starts true is left out too, and a cancellation
    rule with a conjunct ~Kc/p that starts true is not built.
    ``simplify`` finds these atoms fixed and drops the same.  Without it,
    safe-40 ``ki:1`` builds 162/1681 atoms/effects instead of 42/81 and
    disjtoy-9 ``ks0`` 540/4618 instead of 513/2314; folding only the c
    whose fluent no rule sets, bomb-16-16 ``ki:1`` built 128/2352
    instead of 96/1328.
    (5) No merge to a target L is built when no source rule sets ~L,
    each source rule that sets L has a condition within {~L}, and ~L is
    the only literal mutex with L; by (2), nor are the tags and tagged
    atoms that only such merges read, and (4) counts only the merges
    that are built.  Nothing deletes KL then, as only
    the cancellation rules of rules that set ~L can.  A step that makes
    some KL/t true fires a rule that sets L, whose action then also sets
    KL: by the support rule true -> KL, or by (3)'s deduction rule when
    the condition is {~L}, as no rule sets ~L.  A reset makes KL/t true
    only where KL holds.  If every KL/t of a merge holds at the start, L
    is in t* for each t of a valid merge, so I entails L and KL starts
    true.  So wherever a merge's condition holds, KL does, and the merge,
    whose only effect is KL as L has no other mutex partner, changes no
    reachable state.  On bomb the goal literals ~armed-p are such
    targets: bomb-16-16 ``ki:1`` builds 48/800 atoms/effects instead of
    96/1328 (bomb-10-10 30/320 instead of 60/530, bomb-12-4 20/152
    instead of 56/260), and ``simplify`` runs one pass instead of two.

    The build is keyed by (literal, projection), a projection being a
    bitmask over the sorted literals (``ctx.rel``, the table that
    ``analysis.relevance`` builds), the whole tag
    without the rewrites.  Each tag t gives the p of the atom KL/p that
    KL/t is (``projections``, which projects t only onto the literals
    relevant to a target merged through t) for the heads L whose rules it
    keeps; the empty tag keeps every head, at KL.  Per tag, only the mask
    its projections are taken from is kept, for the merges.  Each rule
    C -> L is built once per p found for L and names each condition c
    Kc/(p & relevant_to(c)), Kc/p without the rewrites.  KL/t starts true
    iff L is in t*, which under the rewrites holds iff L is in p or in the
    closure of the empty tag.  Optimized, an atom is declared only where a
    rule, a merge, the goal or a precondition mentions it: the names that
    the build's literal table holds before the initial state is made;
    without the rewrites every KL/t is.  Raises UnsupportedFeature when
    two atoms KL/p take one name, e.g. K~p and K(not-p), or Kp/{q} and
    K(p__q).

    Equal literals and conditions are one object, interned by dicts that
    live as long as the build: disjtoy-9 ``ks0`` builds 2314 rules over 2
    distinct conditions and 513 distinct literals (a copy per rule made
    4618 conditions and 9757 literals before (4)).  Its 512 tags keep an
    int each, and its build peaks at 0.62 MB traced: 1.19 MB with a
    frozenset per projection, a name dict per projection and per tag, and
    a target list per tag.
    """
    if problem.goal_clauses:
        raise UnsupportedFeature("compile clause goals away first")
    if not problem.deterministic:
        raise UnsupportedFeature("compile nondeterministic effects away first")
    if ctx is None:
        ctx = build_context(problem)
    pi = ctx.pi
    lits, bit, relevant, _ = ctx.rel
    if not spec.trusted:
        for t in spec.tags:
            if not (bit.keys() >= t and pi.tag_consistent(t)):
                raise InvalidSpec(f"tag {sorted_lits(t)} is inconsistent or "
                                  "not over the problem's fluents")
        for m in spec.merges:
            if not pi.merge_valid(m):
                raise InvalidSpec(f"invalid merge for {m.target}")

    ruled = {r.effect for a in problem.actions for r in a.rules}
    merges = spec.merges
    if optimized:  # rewrite (5): no merge to a literal that nothing deletes
        guarded = {r.effect for a in problem.actions for r in a.rules
                   if not r.condition <= {r.effect.negate()}}
        merges = tuple(m for m in merges if not (
            m.target.negate() not in ruled and m.target not in guarded
            and set(ctx.mutexes.mutex_with(m.target)) <= {m.target.negate()}))

    # the literals KL/p may be projected onto: those relevant to L under
    # the rewrites; all of them without, where p is the whole tag
    scope = relevant if optimized else dict.fromkeys(lits, -1)
    plain = {L: atom_name(L) for L in lits}
    tokens = [SEPARATOR + L.token for L in lits]
    # (L, p) -> the name of KL/p, in the order the tags first give them
    names: Dict[Tuple[Literal, int], str] = {(L, 0): plain[L] for L in lits}
    # per tag t that a merge reads: the literals relevant to a target
    # merged through t, until t is built; then the literals of t*
    # outside the closure of the empty tag, t itself without the rewrites
    mask_of: Dict[Tag, int] = {}
    for m in merges:
        for t in m.tags:
            mask_of[t] = mask_of.get(t, 0) | relevant[m.target]
    # per head L: the p of the atoms KL/p whose rules are built; and
    # without the rewrites, per tag t: the literals of t*
    built: Dict[Literal, Set[int]] = {L: {0} for L in lits}
    closed: Dict[int, int] = {}
    for t in spec.tags:
        if optimized:  # rewrites (1) and (2)
            if t not in mask_of:
                continue  # no merge reads KL/t
            mask_of[t], tagged = projections(t, ctx, mask_of[t])
        else:
            mask_of[t] = sum(map(bit.__getitem__, t))
            closed[mask_of[t]] = sum(map(bit.__getitem__, pi.closure(t)))
            tagged = dict.fromkeys(lits if t else (), mask_of[t])
        for L, p in tagged.items():  # in sorted order
            if (L, p) not in names:
                names[L, p] = plain[L] + "".join(masked(tokens, p))
            built[L].add(p)
    first = {name: key for key, name in reversed(names.items())}
    for key, name in names.items():
        if first[name] != key:
            raise UnsupportedFeature(
                f"the knowledge atoms of {_describe(lits, *first[name])} and "
                f"of {_describe(lits, *key)} both take the name '{name}'")
    del first

    # one object per value, for this build: each name -> its literal at
    # each value; each condition -> itself
    literals: Tuple[Dict[str, Literal], Dict[str, Literal]] = ({}, {})
    conditions: Dict[FrozenSet[Literal], FrozenSet[Literal]] = {}

    def lit(name: str, value: bool = True) -> Literal:
        found = literals[value].get(name)
        if found is None:
            found = literals[value][name] = Literal(name, value)
        return found

    def share(cond: FrozenSet[Literal]) -> FrozenSet[Literal]:
        return conditions.setdefault(cond, cond)

    goal = frozenset(lit(plain[L]) for L in problem.goal)

    # rewrite (4): the literals c whose atoms Kc/q never become true, as
    # no source rule sets c and no merge sets Kc; of a fluent that no rule
    # sets, they never become false either
    units = sum(map(bit.__getitem__, pi.units))
    folded: Set[Literal] = set()
    if optimized:
        changed = changed_fluents(problem)
        merged = set()
        for m in merges:
            merged.add(m.target)
            merged.update(o.negate() for o in ctx.mutexes.mutex_with(m.target))
        folded = set(lits).difference(ruled, merged)

    # a rule with head KL/p names each condition c Kc/(p & scope[c]):
    # every tag that gives L the projection p gives c that one, as
    # relevant_to(c) is within relevant_to(L)
    actions: List[Action] = []
    for a in problem.actions:
        rules: Set[Rule] = set()
        for r in a.rules:
            # support KC/t -> KL/t and cancellation ~K~C/t -> ~K~L/t
            for L, cond, value in (
                    (r.effect, r.condition, True),
                    (r.effect.negate(), [c.negate() for c in r.condition],
                     False)):
                # Kc/p for a folded c starts true iff c is in p or the
                # units, and is a constant if it starts false or no rule
                # sets its fluent
                static = [c for c in cond if c in folded]
                if static:
                    cond = [c for c in cond if c not in folded]
                for p in built[L]:
                    start = p | units
                    if not value and L in folded and not start & bit[L]:
                        continue  # deletes an atom that is false for good
                    conj = cond
                    for c in static:
                        on = bool(start & bit[c])
                        if on and c.fluent in changed:
                            conj = conj + [c]  # an atom that may fall
                        elif on != value:
                            break  # a conjunct that never holds
                    else:
                        rules.add(Rule(
                            share(frozenset([lit(names[c, p & scope[c]], value)
                                             for c in conj])),
                            lit(names[L, p], value)))
        if optimized:
            # extra deduction: a: C,~L -> L with no a-rule deleting L
            heads = {r.effect for r in a.rules}
            for r in a.rules:
                L = r.effect
                if L.negate() in r.condition and L.negate() not in heads:
                    cond = share(frozenset(
                        lit(plain[c]) for c in r.condition
                        if c != L.negate()))
                    rules.add(Rule(cond, lit(plain[L])))
        precs = share(frozenset(lit(plain[L]) for L in a.preconditions))
        actions.append(Action(a.name, precs,
                              tuple(sorted(rules, key=Rule.sort_key))))

    for m in dict.fromkeys(merges):  # a merge listed twice is one action
        L = m.target
        cond = share(frozenset(lit(names[L, mask_of[t] & scope[L]])
                               for t in m.tags))
        effects = [Rule(cond, lit(plain[L]))]
        for other in ctx.mutexes.mutex_with(L):
            if other == L.negate():
                continue
            effects.append(Rule(cond, lit(plain[other.negate()])))
        actions.append(Action(merge_action_name(m), share(frozenset()),
                              tuple(effects)))
    actions.sort(key=lambda a: a.name)

    # under the rewrites, the names that ``lit`` made: those the goal, the
    # preconditions and the rules mention
    declared = (literals[True].keys() | literals[False].keys()
                if optimized else set(names.values()))
    # KL/p starts true iff L is in p*, or under the rewrites in p or the
    # closure of the empty tag
    init = {lit(name) for (L, p), name in names.items()
            if name in declared
            and bit[L] & (p | units if optimized else closed[p])}
    return ClassicalProblem(frozenset(declared), frozenset(init),
                            tuple(actions), goal)


def simplify(K: ClassicalProblem) -> ClassicalProblem:
    """K reduced to what decides its plans: four analyses over the rules
    of K, then one rewrite that builds each kept action once.

    (1) Relaxed reachability: from the initial state, a literal is
    reached once a rule sets it whose action's preconditions and own
    condition are reached, so the reached set holds every literal of
    every reachable state.  Such a rule *fires*.  The one reached literal
    of an atom that never changes is *fixed*: it holds in every reachable
    state.  An unreached goal literal keeps its atom, which no rule sets,
    so a search ends at its first state.
    (2) The coarsest stable partition (Paige and Tarjan) of the atoms
    that change and of those of the unreached goal literals, over the
    firing rules without their fixed literals.  With each atom's values
    negated when it starts true (normalized), a partition is stable when
    the members of each class have the same signature: the set of
    (action, condition as (class, normalized value) pairs, normalized
    effect value) over the rules that set the atom, less the rules whose
    condition holds a class at both values.  From a single class, the
    pass splits classes by signature until none splits; a split never
    separates two atoms that a stable partition joins.
    (4) Implied conjuncts, after (2): in each conjunction the encoding
    tests (the goal, an action's preconditions, a firing rule's
    condition), without its fixed literals, a literal B goes when a
    literal A of it that stays implies B in every reachable state.  A
    implies B when A does not hold at the start or B does, no firing rule
    makes B false, and each firing rule that makes A true has a match in
    its action: a rule that makes B true under a condition within A's
    condition and the action's preconditions.  Literals are compared by
    class, and a rule whose condition and preconditions hold a class at
    both values is left out, as it never fires.  By induction over the
    steps of a plan, A -> B holds in every reachable state: it does at
    the start, and where it does, B stays true once true, and a step
    that makes A true fires a rule whose match fires too.  The test is
    transitive, as the match of a match lies within the same condition
    and preconditions.  So from each group of literals that imply each
    other and that no literal outside it implies, the one whose class
    has the least-named atom stays, and a literal that goes is implied
    by one that stays.
    (3) The read closure: the goal's atoms, then the atoms of the
    condition and of the action's preconditions of each rule of a
    signature of (2) that sets a read atom, less the conjuncts that (4)
    drops and the idle rules.  A rule C -> B is idle when B is false at
    the start, no firing rule makes B false, and a literal of C implies B
    by (4)'s test.  Where it fires B already holds, and nothing can clash
    with it, as nothing makes B false; so it changes nothing.  ``ktm``'s
    rewrite (5) builds no merge of this kind that the source rules show,
    such as bomb's to Knot-armed-p; on random problems this drops others.
    A rule
    C -> B is idle too when C holds B (by class) and no firing rule of
    its action sets ~B under a condition that holds no class at both
    values with C: where it fires B holds, and nothing clashes with it.
    On bomb under ``ks0`` this drops the merges to Knot-clogged-t.  And
    a firing rule C -> B is idle when a firing rule of its action sets B
    to the same normalized value under a condition strictly within C (by
    class): that rule fires wherever C -> B does, so C -> B changes
    nothing more and raises no clash of its own, as translator
    preprocessing drops such effects (Helmert 2009).  On square-center-3
    this drops down's Ky3 -> Knot-y3 beside rewrite (3)'s true ->
    Knot-y3.

    While it decides, the pass holds atoms, literals and conditions as
    ints and masks, and works out each distinct condition once.  The
    rewrite builds the kept rules from K's own condition objects, so a
    condition that K shares (``ktm`` builds one per value) stays one.

    The rewrite keeps the read atoms, each class as its least-named read
    member, the representative, and the actions with a rule of (3), with
    those rules.  The other members of a class go, with their rules: they
    become the representative, or its negation when their initial values
    differ, in the goal, the preconditions and the conditions, which also
    lose the fixed literals and the conjuncts that (4) drops.  Rules that
    become equal are one.

    By induction over the steps of a plan, in every state reachable in K
    the fixed literals hold and the members of a class have one
    normalized value: they do at the start, and where they do, a
    condition depends only on whole classes, so the same normalized
    effects fire for every member, and a member clashes exactly when the
    others do.  A conjunction holds exactly where what (4) keeps of it
    does, and an idle rule changes no state.  So a kept action applies
    exactly when it does in K, the kept atoms, which depend on read atoms
    only, get the same values and raise the same InconsistentResults, the
    goal test is the same, and an action that goes never applies or
    changes no kept atom.  K and the result have the same plans, less the
    steps that change no kept atom; a clash on an atom the result drops
    no longer raises.  This holds for any rules, reset effects and merge
    actions included.
    A dropped conjunct or idle rule can be all that told two signatures
    of (2) apart, or that kept a rule from matching in (4); so while (4)
    drops a conjunct or (3) an idle rule, the pass runs again on its own,
    smaller, result.  On disjtoy-9 ``ks0`` the second pass sees 10 atoms
    instead of 513; square-center, corners-square and sgripper run one
    for the rules within a sibling's condition.  A second ``simplify``
    changes nothing, unless (2) finds that a rule which (1) lets fire
    never fires and that rule alone changed an atom: only the second
    pass finds that atom fixed.
    """
    while True:
        K, dropped = _simplify_pass(K)
        if not dropped:
            return K


def _simplify_pass(K: ClassicalProblem) -> Tuple[ClassicalProblem, bool]:
    """One pass of ``simplify``, and whether (4) dropped a conjunct or
    (3) an idle rule."""
    # The atoms are ids, in name order, and each must be in K.fluents.  A
    # literal is 2 * its atom + its normalized value, so the even literals
    # hold at the start; a set of literals is a mask.  Each condition (the
    # goal and the preconditions too) gets an id and a mask once.
    atoms = sorted(K.fluents)
    n, span = len(atoms), range(2 * len(atoms))
    index = dict(zip(atoms, range(n)))
    start = bytearray(n)
    for f, v in K.init:
        start[index[f]] |= v
    EVEN = (4 ** n - 1) // 3
    ODD = EVEN << 1
    ids: Dict[FrozenSet[Literal], int] = {}
    masks: List[int] = []
    # Worklist over the conditions: each counts its odd literals that are
    # not reached yet, and a rule fires once its condition and its
    # action's preconditions count zero.  Only odd literals are reached
    # after the start, each its atom's second value, so only the rules
    # with an odd head wait, on one condition that counts at a time.
    need: List[int] = []
    watchers: Dict[int, List[int]] = {}  # atom -> conditions, by odd literal
    users: Dict[int, List[int]] = {}  # condition -> the rules that wait on it
    queue: List[int] = []  # atoms

    def intern(cond: FrozenSet[Literal]) -> int:
        c = ids.get(cond)
        if c is None:
            c = ids[cond] = len(masks)
            m = k = 0
            for f, v in cond:
                a = index[f]
                if v ^ start[a]:
                    m, k = m | 2 << 2 * a, k + 1
                    watchers.setdefault(a, []).append(c)
                else:
                    m |= 1 << 2 * a
            masks.append(m)
            need.append(k)
        return c

    def ints(k: int) -> memoryview:  # k zeros, as 4-byte ints
        return memoryview(bytearray(4 * k)).cast("i")

    goal = intern(K.goal)
    # per rule, numbered across the actions (those of action i from
    # first[i]): 2 * its action + its head's normalized value, its
    # condition and its head
    R = sum([len(a.rules) for a in K.actions])
    ae, cond_of, head, pre, first = ints(R), ints(R), ints(R), [], [0]
    for i, a in enumerate(K.actions):
        pre.append(p := intern(a.preconditions))
        for r, (cond, (f, v)) in enumerate(a.rules, first[i]):
            c, x = ids.get(cond), index[f]
            if c is None:
                c = intern(cond)
            x = 2 * x + (v ^ start[x])
            if x & 1:
                w = c if need[c] else p
                if need[w]:
                    users.setdefault(w, []).append(r)
                else:
                    queue.append(x >> 1)
            ae[r], cond_of[r], head[r] = 2 * i + (x & 1), c, x
        first.append(first[i] + len(a.rules))
    up = bytearray(n)  # atom -> it changes
    while queue:
        a = queue.pop()
        if not up[a]:
            up[a] = 1
            for c in watchers.get(a, ()):
                need[c] -= 1
                for r in users.pop(c, ()) if not need[c] else ():
                    w = cond_of[r] if need[cond_of[r]] else pre[ae[r] >> 1]
                    if need[w]:
                        users.setdefault(w, []).append(r)
                    else:
                        queue.append(head[r] >> 1)
    del watchers, users
    # both literals of each atom that changes; the other atoms keep the
    # one reached literal, which is fixed and goes from every mask.  A
    # condition is reached when it needs nothing more, and a rule fires
    # when its condition and its action's preconditions are reached.
    live = sum(3 << 2 * a for a in range(n) if up[a])
    masks = [m & (ODD | live) for m in masks]

    # per atom that changes, the numbers of the firing rules that set it,
    # at setting[ends[a]:ends[a + 1]]
    firing = sorted([r for i in range(len(K.actions)) if not need[pre[i]]
                     for r in range(first[i], first[i + 1])
                     if up[head[r] >> 1] and not need[cond_of[r]]],
                    key=head.__getitem__)
    setting, ends = ints(len(firing)), ints(n + 1)
    for k, r in enumerate(firing):
        setting[k] = r
        ends[(head[r] >> 1) + 1] += 1
    for a in range(n):
        ends[a + 1] += ends[a]
    del firing

    def setters(a: int) -> memoryview:
        return setting[ends[a]:ends[a + 1]]

    # atom -> its class: a literal's code is 2 * its atom's class + its
    # normalized value, and a set of codes is a mask, which holds a class
    # at both values when both(g)
    cls = [0] * n
    coded: Dict[int, int] = {}  # condition id -> its codes

    def codes(c: int) -> int:
        g = coded.get(c)
        if g is None:
            g = 0
            for x in masked(span, masks[c]):
                g |= 1 << (2 * cls[x >> 1] | x & 1)
            coded[c] = g
        return g

    def both(g: int) -> int:
        return g & g >> 1 & EVEN

    # From a single class of the atoms of (2), those that change and those
    # of the unreached goal literals, in name order, split each class by
    # its members' signatures until a round splits none.  A round takes
    # every signature under the classes it starts with, so it works out
    # each condition's codes once, and then gives all parts of each split
    # but the first fresh classes.  A signature is the (condition codes,
    # action, normalized effect value) of the setters, packed, less those
    # whose condition holds a class at both values; a condition's codes
    # pack as the one code, or as the negated mask of two or more.
    inner = [a for a in range(n) if up[a] or masks[goal] >> 2 * a + 1 & 1]
    unsplit, next_class = [inner], 1
    NA2 = 2 * len(K.actions)
    keyed: Dict[int, Optional[int]] = {}  # condition id -> packed codes
    while True:
        refined, moved = [], []
        keyed.clear()
        coded.clear()
        for members in unsplit:
            parts: Dict[Tuple[int, ...], List[int]] = {}
            for a in members:
                sig = set()
                for r in setters(a):
                    k = keyed.get(cond_of[r], False)
                    if k is False:
                        d = masks[cond_of[r]]
                        if d & d - 1:
                            g = codes(cond_of[r])
                            k = None if both(g) else \
                                NA2 * (-g if g & g - 1 else g.bit_length())
                        else:  # one literal's code or none, with no mask
                            x = d.bit_length() - 1
                            k = d and NA2 * ((2 * cls[x >> 1] | x & 1) + 1)
                        keyed[cond_of[r]] = k
                    if k is not None:
                        sig.add(k + ae[r])
                parts.setdefault(tuple(sorted(sig)), []).append(a)
            refined += [part for part in parts.values() if len(part) > 1]
            moved += itertools.islice(parts.values(), 1, None)
        if not moved:
            break
        for part in moved:
            for a in part:
                cls[a] = next_class
            next_class += 1
        unsplit = refined

    # (4) each class -> its least-named atom, whose setters stand for the
    # class.  An odd code is a literal false at the start.
    member = {cls[a]: a for a in reversed(inner)}
    guards: Dict[int, Optional[int]] = {}  # keyed by c * NA2 + i

    def guard(i: int, c: int) -> Optional[int]:
        """The codes of condition c and of action i's preconditions, or None
        when they hold a class at both values, so the rule never fires."""
        if c * NA2 + i not in guards:
            g = codes(pre[i]) | codes(c)
            guards[c * NA2 + i] = None if both(g) else g
        return guards[c * NA2 + i]

    monotone: Dict[int, bool] = {}  # odd code -> no firing rule falsifies it

    def is_monotone(y: int) -> bool:
        found = monotone.get(y)
        if found is None:
            found = monotone[y] = all(
                ae[r] & 1 or guard(ae[r] >> 1, cond_of[r]) is None
                for r in setters(member[y >> 1]))
        return found

    # per action: condition codes -> the codes of the monotone literals
    # its firing rules make true under that condition; per (action,
    # condition of a rule): the codes of the monotone literals the action
    # makes true whenever that rule fires, all (-1) when it never does
    raising: Dict[int, Dict[int, int]] = {}
    matched: Dict[int, int] = {}

    def matching(i: int, c: int) -> int:
        found = matched.get(c * NA2 + i)
        if found is None:
            if i not in raising:
                rules = raising[i] = {}
                for r in range(first[i], first[i + 1]):
                    # an odd head reached after the start: its atom changes
                    y = 2 * cls[head[r] >> 1] + 1
                    if head[r] & 1 and not need[cond_of[r]] \
                            and is_monotone(y):
                        d = codes(cond_of[r])
                        rules[d] = rules.get(d, 0) | 1 << y
            g = guard(i, c)
            found, out = (0, ~g) if g is not None else (-1, 0)
            for d, ys in raising[i].items() if g is not None else ():
                if not d & out:
                    found |= ys
            matched[c * NA2 + i] = found
        return found

    def implied(x: int, ys: int) -> int:
        """The codes among ys that x implies in every reachable state."""
        ys &= ~(1 << x)
        for r in setters(member[x >> 1]):
            if ae[r] & 1 and ys:
                ys &= matching(ae[r] >> 1, cond_of[r])
        return ys

    # the conjunctions that (4) shrinks, by condition id -> the literals it
    # keeps
    shrunk: Dict[int, int] = {}

    def conjunction(c: int) -> List[int]:
        """The atoms of condition c, a conjunction without fixed literals,
        less those of the literals that another literal of it that stays
        implies; for each condition once."""
        d = masks[c]
        if d & d - 1:  # two literals or more
            g = codes(c)
            odd = masked(span, g & ODD)
            ys = sum(1 << y for y in odd if is_monotone(y))
            if len(odd) > 1 and ys and not both(g):
                # each x, keyed by what it implies and x itself: as the
                # test is transitive, the literals under one key imply
                # each other, and a literal that another key holds is
                # implied by a literal that stays
                ups: Dict[int, List[int]] = {}
                for x in odd:
                    ups.setdefault(implied(x, ys) | 1 << x, []).append(x)
                below = 0
                for up, xs in ups.items():
                    below |= up & ~sum([1 << x for x in xs])
                keep = sum([1 << min(xs, key=lambda x: member[x >> 1])
                            for xs in ups.values() if not below >> xs[0] & 1])
                if keep.bit_count() < len(odd):
                    shrunk[c] = sum(1 << x for x in masked(span, d)
                                    if not x & 1
                                    or keep >> (2 * cls[x >> 1] + 1) & 1)
        return [x >> 1 for x in masked(span, shrunk.get(c, d))]

    # the read closure, and the rules it keeps and their actions, less the
    # idle rules: a rule of their action sets their head to the same
    # value under a condition strictly within theirs; or their head, odd
    # code y, is monotone and implied by a literal of their condition; or
    # their head is in their condition and no rule of their action that
    # can fire with them sets its complement
    read, kept, acted = bytearray(n), bytearray(R), bytearray(len(K.actions))
    idle = False
    stack: List[int] = []
    visited = bytearray(len(masks))

    def visit(c: int):
        """Read the atoms of what (4) keeps of condition c."""
        if not visited[c]:
            visited[c] = 1
            for b in conjunction(c):
                if not read[b]:
                    read[b] = 1
                    stack.append(b)

    visit(goal)
    while stack:
        a = stack.pop()
        y = 2 * cls[a] + 1
        # condition id * NA2 + 2 * action + normalized value -> the rules
        # that set a to that value under that condition, which are idle or
        # not together; and 2 * action + value -> the condition codes
        firing: Dict[int, List[int]] = {}
        for r in setters(a):
            firing.setdefault(cond_of[r] * NA2 + ae[r], []).append(r)
        groups = [(key % NA2, codes(key // NA2), rules)
                  for key, rules in firing.items()
                  if not both(codes(key // NA2))]  # else they never fire
        by_action: Dict[int, List[int]] = {}
        for k, g, _ in groups:
            by_action.setdefault(k, []).append(g)
        for k, g, rules in groups:
            i, e, out = k >> 1, k & 1, ~g
            if len(by_action[k]) > 1 and any(
                    d != g and not d & out for d in by_action[k]) or (
                    e and is_monotone(y) and any(
                        implied(x, 1 << y) for x in masked(span, g & ODD))
                    ) or (g >> (y - 1 + e) & 1 and all(
                        both(g | d) for d in by_action.get(k ^ 1, ()))):
                idle = True
                continue
            for r in rules:
                visit(cond_of[r])
                kept[r] = 1
            if not acted[i]:
                acted[i] = 1
                visit(pre[i])

    del setting, ends, coded, keyed, guards, raising, matched
    # each read member of a class but the least-named -> the literal of
    # that representative
    sub: Dict[Literal, Literal] = {}
    for members in unsplit:
        rep, *others = sorted([a for a in members if read[a]]) or [None]
        for a in others:
            flip = start[a] != start[rep]
            sub[Literal(atoms[a], True)] = Literal(atoms[rep], not flip)
            sub[Literal(atoms[a], False)] = Literal(atoms[rep], flip)
    gone = frozenset(sub)
    rewritten: Dict[FrozenSet[Literal], FrozenSet[Literal]] = {}

    def rewrite(lits: FrozenSet[Literal]) -> FrozenSet[Literal]:
        """lits less its fixed literals and the conjuncts (4) drops, with
        each member that goes replaced; worked out once per condition."""
        found = rewritten.get(lits)
        if found is None:
            keep = shrunk.get(ids[lits], masks[ids[lits]])
            found = lits if keep.bit_count() == len(lits) else frozenset(
                [l for l in lits  # the literals at a bit of keep
                 if keep >> 2 * index[l[0]] + (l[1] ^ start[index[l[0]]]) & 1])
            if not found.isdisjoint(gone):
                found = frozenset([sub.get(l, l) for l in found])
            rewritten[lits] = found
        return found

    actions = []
    for i, a in enumerate(K.actions):
        if acted[i]:
            rules = tuple(dict.fromkeys([
                Rule(rewrite(cond), L)
                for r, (cond, L) in enumerate(a.rules, first[i])
                if kept[r] and L not in gone]))
            actions.append(a._replace(preconditions=rewrite(a.preconditions),
                                      rules=rules))
    return ClassicalProblem(
        frozenset([f for a, f in enumerate(atoms) if read[a]]).difference(
            [f for f, _ in gone]),
        frozenset([l for l in K.init if read[index[l[0]]] and l not in gone]),
        tuple(actions), rewrite(K.goal)), bool(shrunk) or idle


# --- front ends ------------------------------------------------------------

def _fresh_names(problem: ConformantProblem, front_end: str):
    """The function through which a front end mints its names: it refuses
    a name that the input or an earlier minting already took."""
    taken = {"fluent": set(problem.fluents),
             "action": {a.name for a in problem.actions}}

    def fresh(kind: str, name: str) -> str:
        if name in taken[kind]:
            raise UnsupportedFeature(
                f"{front_end} cannot mint the {kind} name '{name}': a "
                f"source {kind} or another minted name takes it")
        taken[kind].add(name)
        return name
    return fresh


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
    fresh = _fresh_names(problem, "the clause-goal front end")
    for idx, c in enumerate(clauses):
        gatom = fresh("fluent", f"goal-c{idx}")
        enabler = fresh("fluent", f"goal-e{idx}")
        fluents |= {gatom, enabler}
        init.append(frozenset((neg(gatom),)))
        init.append(frozenset((pos(enabler),)))
        rules = [Rule(frozenset(), neg(enabler))]
        rules += [Rule(frozenset((l,)), pos(gatom)) for l in sorted(c)]
        actions.append(Action(fresh("action", f"eval-goal-c{idx}"),
                              frozenset((pos(enabler),)), tuple(rules)))
        goal.add(pos(gatom))
    return conformant_problem(fluents, init, actions, goal)


# --- nondeterministic front-end -------------------------------------------

def nondet_compile(problem: ConformantProblem, copies: int = 1
                   ) -> Tuple[ConformantProblem, Dict[str, Tuple[str, ...]]]:
    """Determinize oneof effects with hidden outcome-selector fluents.

    Each nondeterministic action yields ``copies`` single-use deterministic
    copies: copy k resolves every oneof through fresh hidden fluents
    constrained by a oneof clause in I, is gated by an ``enabled`` fluent it
    consumes, and gets a reset action that re-enables it.  Returns the
    compiled problem and the map from each reset action's name to its
    copy's hidden fluents (empty for deterministic input).  The reset's
    knowledge-erasing conditional effects live at the classical level and
    are injected after translation (see inject_reset_effects).
    """
    if copies < 1:
        raise ValueError("copies must be >= 1")
    if problem.deterministic:
        return problem, {}
    fluents = set(problem.fluents)
    init = list(problem.init)
    actions: List[Action] = []
    resets: Dict[str, Tuple[str, ...]] = {}
    fresh = _fresh_names(problem, "the oneof front end")
    for a in sorted(problem.actions, key=lambda x: x.name):
        if a.deterministic:
            actions.append(a)
            continue
        for k in range(1, copies + 1):
            name = fresh("action", f"{a.name}-c{k}")
            enabler = fresh("fluent", f"enabled-{name}")
            fluents.add(enabler)
            init.append(frozenset((pos(enabler),)))
            rules = list(a.rules)
            rules.append(Rule(frozenset(), neg(enabler)))
            hidden_all: List[str] = []
            for ridx, nr in enumerate(a.nondet_rules):
                hidden = [fresh("fluent", f"h-{name}-r{ridx}-o{o}")
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
            reset_name = fresh("action", f"reset-{name}")
            actions.append(Action(reset_name, frozenset(),
                                  (Rule(frozenset(), pos(enabler)),)))
            resets[reset_name] = tuple(hidden_all)
    compiled = conformant_problem(fluents, init, actions, problem.goal,
                                  problem.goal_clauses)
    return compiled, resets


def inject_reset_effects(K: ClassicalProblem, ctx: Context,
                         spec: TranslationSpec,
                         resets: Dict[str, Tuple[str, ...]]
                         ) -> ClassicalProblem:
    """Add the knowledge-erasing effects to each reset action of K, which
    ``ktm`` built from ``ctx.problem`` and ``spec`` with the rewrites: for
    every tag t mentioning the copy's hidden fluents and every literal L,
    KL -> KL/t and ~KL -> ~KL/t (assumption-dependent knowledge is reset
    to the unconditional knowledge).  KL/t is KL/p for the projection p
    of t onto L (``projections``), as in ``ktm``, or KL, which needs no
    reset.  Without the rewrites ``ktm`` makes each reset set KL/t for
    its enabler L at every tag, which these effects would contradict.

    Knowledge of a fluent that no rule sets, such as a hidden selector,
    is not reset: I and t entail such a literal iff I and t less the
    copy's selectors do, as those are independent of the rest of I, so
    it stays true after a reset.  This keeps constant the atoms that
    ``ktm``'s rewrite (4) folds.  Resetting another copy's selectors
    made sgripper-1 ``kmodels`` with two copies search 67/351
    atoms/effects instead of 65/341."""
    if not resets:
        return K
    changed = changed_fluents(ctx.problem)
    new_actions = []
    for a in K.actions:
        hidden = resets.get(a.name)
        if hidden is None:
            new_actions.append(a)
            continue
        hidden_set = set(hidden)
        rules = set(a.rules)
        for t in spec.tags:
            if not any(l.fluent in hidden_set for l in t):
                continue
            for L, p in projections(t, ctx)[1].items():
                if L.fluent not in changed:
                    continue  # static knowledge survives the reset
                name = atom_name(L, masked(ctx.rel.lits, p))
                if name not in K.fluents:
                    continue  # K has no atom KL/p to reset
                plain = atom_name(L)
                rules.add(Rule(frozenset((pos(plain),)), pos(name)))
                rules.add(Rule(frozenset((Literal(plain, False),)),
                               Literal(name, False)))
        new_actions.append(Action(a.name, a.preconditions,
                                  tuple(sorted(rules, key=Rule.sort_key))))
    return replace(K, actions=tuple(new_actions))
