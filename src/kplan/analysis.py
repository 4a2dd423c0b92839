"""Structural analysis of conformant problems.

Covers four services used by the translations and the validators:

* conformant relevance between literals (reachability over the action
  rules' condition -> effect edges and their complements), as one
  bitmask table (``Masks``) that every other layer reads,
* extraction of the uncertainty clauses relevant to a target literal,
* covers / satisfaction / conformant width,
* literal mutexes.
"""

from __future__ import annotations

import itertools
from typing import (Dict, FrozenSet, Iterable, List, NamedTuple, Optional,
                    Set, Tuple)

from .errors import UnsupportedFeature, WidthSearchCap
from .model import Clause, ConformantProblem, Literal, neg, pos, sorted_lits
from .pi import DEFAULT_PI_CLAUSE_CAP, PICNF, prime_implicates


def all_literals(fluents: Iterable[str]) -> List[Literal]:
    return [Literal(f, v) for f in sorted(fluents) for v in (False, True)]


class Masks(NamedTuple):
    """The relation "L is relevant to L'" as bitmasks over the sorted
    literals (see ``relevance``)."""

    lits: List[Literal]
    bit: Dict[Literal, int]
    relevant: Dict[Literal, int]
    reachable: Dict[Literal, int]


def masked(items: List, mask: int) -> List:
    """The items at the bits that mask sets, in order."""
    out = []
    while mask:  # take the lowest bit, then clear it
        out.append(items[(mask & -mask).bit_length() - 1])
        mask &= mask - 1
    return out


def relevance(problem: ConformantProblem) -> Masks:
    """Least relation closed under the relevance rules:

    1. L -> L;
    2. L -> L' for every rule C -> L' with L in C;
    3. L -> L' and L' -> L'' imply L -> L'';
    4. L -> L' if L -> ~L'' and L'' -> ~L' for some L''.

    It is reachability over the edges c -> L' and ~c -> ~L' of every rule
    C -> L' with c in C (rule 4 with L = ~c, L'' = c gives the second edge),
    and that reachability is closed under rule 4 because the edges come in
    complementary pairs: L'' -> ~L' gives ~L'' -> L'.  The same pairing
    makes rule 4 equivalent to its contrapositive form "~L -> ~L' implies
    L -> L'".  One search per literal over the successor masks computes
    it.  Action preconditions do not induce relevance.

    Returns it as ``Masks``: the literals in sorted order, bit i for the
    i-th (so the complement of bit i is bit i ^ 1), and per literal the
    mask of the literals relevant to it and that of those it is relevant
    to.
    """
    if not problem.deterministic:
        raise UnsupportedFeature("compile nondeterministic effects away first")
    lits = all_literals(problem.fluents)
    index = {L: i for i, L in enumerate(lits)}
    succ = [0] * len(lits)
    for a in problem.actions:
        for r in a.rules:
            for c in r.condition:
                i, e = index[c], index[r.effect]
                succ[i] |= 1 << e
                succ[i ^ 1] |= 1 << (e ^ 1)
    bit = {L: 1 << i for L, i in index.items()}
    relevant = dict.fromkeys(lits, 0)
    reachable = {}
    for i, L in enumerate(lits):
        seen = todo = 1 << i
        while todo:  # take the lowest bit, then clear it
            nxt = succ[(todo & -todo).bit_length() - 1] & ~seen
            todo = (todo & (todo - 1)) | nxt
            seen |= nxt
        reachable[L] = seen
        for target in masked(lits, seen):
            relevant[target] |= bit[L]
    return Masks(lits, bit, relevant, reachable)


# --- relevant clauses, covers, width ---------------------------------------

def c_i(pi: PICNF) -> Tuple[Clause, ...]:
    """The uncertainty of I: its non-unit prime implicates plus a tautology
    p | ~p for every fluent with neither polarity entailed."""
    clauses = set(pi.nonunit_clauses)
    for f in pi.unknown_fluents():
        clauses.add(frozenset((pos(f), neg(f))))
    return tuple(sorted(clauses, key=sorted_lits))


class RelevantClauseSet(NamedTuple):
    clauses: Tuple[Clause, ...]       # C_I(L)
    extended: Tuple[Clause, ...]      # C_I*(L)


def relevant_clauses(ci: Iterable[Clause], L: Literal,
                     rel: Masks) -> RelevantClauseSet:
    incoming = frozenset(masked(rel.lits, rel.relevant[L]))
    core = tuple(sorted((c for c in ci if c <= incoming), key=sorted_lits))
    extended = set(core)
    for c in core:
        for lit in c:
            extended.add(frozenset((pos(lit.fluent), neg(lit.fluent))))
    return RelevantClauseSet(core, tuple(sorted(extended, key=sorted_lits)))


def cover(C: Iterable[Clause], pi: PICNF) -> Tuple[FrozenSet[Literal], ...]:
    """All minimal I-consistent literal sets hitting every clause of C.

    The clauses are taken in sorted order; a partial set that misses the
    next clause is extended by each of its literals that keeps it
    I-consistent, and the minimal sets are kept at the end.
    """
    partial: Set[FrozenSet[Literal]] = {frozenset()}
    for c in sorted({frozenset(c) for c in C}, key=sorted_lits):
        grown: Set[FrozenSet[Literal]] = set()
        for S in partial:
            if S & c:
                grown.add(S)
                continue
            for lit in c:
                if lit.negate() not in S and pi.tag_consistent(S | {lit}):
                    grown.add(S | {lit})
        partial = grown
    minimal = [s for s in partial if not any(o < s for o in partial)]
    return tuple(sorted(minimal, key=sorted_lits))


def satisfies(tags: Iterable[FrozenSet[Literal]], C: Iterable[Clause],
              pi: PICNF) -> bool:
    """Every tag's closure intersects every clause of C."""
    C = list(C)
    return all(all(not closed.isdisjoint(c) for c in C)
               for closed in map(pi.closure, tags))


def width_of_literal(ci: Iterable[Clause], L: Literal, rel: Masks,
                     pi: PICNF, cap: Optional[int] = None
                     ) -> Tuple[int, Tuple[Clause, ...]]:
    """Smallest |C|, C subset of C_I*(L), whose cover satisfies C_I(L).

    No prime implicate joins two components of ``pi.component``, so the
    cover of C is the product of the covers of its parts in each
    component, and it satisfies C_I(L) iff each part's cover satisfies
    the part of C_I(L) there: the width is the sum of the parts' widths.
    Each part searches its sizes in increasing order and, within a size,
    its candidate subsets in lexicographic order of the canonically sorted
    clause list.  The sorted union of the parts' least witnesses is the
    lexicographically least minimal witness, as a lexicographically
    smaller part of the same size would make the union smaller.  The
    parts spend ``cap`` together, and WidthSearchCap is raised once their
    sum would exceed it.  Without a cap, the tautologies over the fluents
    V of C_I(L), all unknown, are a witness of size |V|, as their cover
    holds every I-consistent assignment to V.
    """
    rcs = relevant_clauses(ci, L, rel)
    if cap is None:
        cap = len(pi.unknown_fluents())
    pools: Dict[str, List[Clause]] = {}
    for c in rcs.extended:  # each clause lies within one component
        pools.setdefault(pi.component[next(iter(c)).fluent], []).append(c)
    core = set(rcs.clauses)
    width, witness = 0, []
    for pool in pools.values():
        part = [c for c in pool if c in core]
        candidates = (C for size in range(1, min(cap - width, len(pool)) + 1)
                      for C in itertools.combinations(pool, size))
        found = next((C for C in candidates
                      if satisfies(cover(C, pi), part, pi)), None)
        if found is None:
            raise WidthSearchCap(
                f"no witness of size <= {cap} for literal {L}")
        width += len(found)
        witness += found
    return width, tuple(sorted(witness, key=sorted_lits))


def target_literals(problem: ConformantProblem,
                    include_all: bool = False) -> Tuple[Literal, ...]:
    """Precondition and goal literals (the width/merge targets), or every
    literal when ``include_all`` (used by the nondeterministic pipeline)."""
    if include_all:
        return tuple(all_literals(problem.fluents))
    lits: Set[Literal] = set(problem.goal)
    for c in problem.goal_clauses:
        lits |= c
    for a in problem.actions:
        lits |= a.preconditions
    return tuple(sorted(lits))


def width(problem: ConformantProblem) -> int:
    pi = prime_implicates(problem.init, problem.fluents)
    rel = relevance(problem)
    ci_clauses = c_i(pi)
    widths = [width_of_literal(ci_clauses, L, rel, pi)[0]
              for L in target_literals(problem)]
    return max(widths, default=0)


# --- mutexes ---------------------------------------------------------------

class MutexSet:
    """The mutex pairs of distinct literals in the one form the fixpoint
    leaves them: the literals in sorted order (those of ``relevance``)
    and, per literal, the bitmask of its partners.  ``mutex`` and
    ``mutex_with`` read the relation; nothing else holds it."""

    def __init__(self, lits: List[Literal], partners: List[int]):
        self._lits = lits
        self._partners = dict(zip(lits, partners))

    def mutex(self, L: Literal, Lp: Literal) -> bool:
        return Lp in self.mutex_with(L)

    def mutex_with(self, L: Literal) -> List[Literal]:
        """L's partners, in sorted order."""
        return masked(self._lits, self._partners.get(L, 0))


def mutex_set(problem: ConformantProblem, pi: Optional[PICNF] = None
              ) -> MutexSet:
    """Greatest fixpoint of the mutex conditions.

    Start from every literal pair that is not jointly true in any possible
    initial state, then delete pairs until the two propagation conditions
    hold for all surviving pairs:

    * for two rules C -> L and C' -> L' of one action, C u C' is mutex;
    * for a rule C -> L and the partner literal L', either L' = ~L, or
      C u {L'} is mutex, or C u {L'} implies the body of some rule
      C' -> ~L' of the same action ("implies" = mutex with the complement
      of every literal of C' \\ (C u {L'})).  Whatever C implies, C u {L'}
      implies too, so this keeps every pair that an implication from C
      alone would keep.

    Action preconditions are pushed into every rule condition.  Since I is
    in prime-implicate form, L and L' are jointly false in every initial
    state iff they are complementary or a prime implicate is a subset of
    {~L, ~L'}; only the empty, unit and binary prime implicates can be, so
    the seed is read off those alone.

    The fixpoint runs on indexes rather than scans: literal ids in sorted
    order (the complement of id i is i ^ 1), a partner bitmask per literal
    (a set of literals is mutex iff some member's partners meet it),
    and per action a map from rule head to the pushed conditions of the
    rules with that head, so a pair L, L' visits only the actions with L
    or L' as a head and, in them, only the rules with head L, L' or ~L'.
    The conditions are monotone in the pair set, so the fixpoint does not
    depend on the order in which pairs are deleted.  The partner masks it
    ends with are the ``MutexSet``.
    """
    if pi is None:
        pi = prime_implicates(problem.init, problem.fluents)
    lits = all_literals(problem.fluents)
    lid = {l: i for i, l in enumerate(lits)}
    everyone = (1 << len(lits)) - 1

    # seed: complementary pairs, then empty, unit and binary implicates
    partners = [1 << (i ^ 1) for i in range(len(lits))]
    for c in pi.clauses:
        if len(c) > 2 or not all(l in lid for l in c):
            continue
        blocked = [lid[l] ^ 1 for l in c]   # {~L, ~L'} contains c
        if not blocked:
            partners = [everyone & ~(1 << i) for i in range(len(lits))]
        elif len(blocked) == 1:
            (i,) = blocked
            partners[i] = everyone & ~(1 << i)
            for j in range(len(lits)):
                if j != i:
                    partners[j] |= 1 << i
        else:
            i, j = blocked
            partners[i] |= 1 << j
            partners[j] |= 1 << i

    # per action: head id -> [(condition ids, condition mask)]
    heads_of: List[Dict[int, List[Tuple[Tuple[int, ...], int]]]] = []
    acting_on: Dict[int, Set[int]] = {}
    for a in problem.actions:
        by_head: Dict[int, List[Tuple[Tuple[int, ...], int]]] = {}
        for r in a.rules:
            ids = tuple(sorted({lid[l] for l in a.preconditions | r.condition}))
            mask = 0
            for i in ids:
                mask |= 1 << i
            by_head.setdefault(lid[r.effect], []).append((ids, mask))
        for head in by_head:
            acting_on.setdefault(head, set()).add(len(heads_of))
        heads_of.append(by_head)

    def set_mutex(ids: Tuple[int, ...], mask: int) -> bool:
        return any(partners[i] & mask for i in ids)

    def implies(base: int, ids: Tuple[int, ...]) -> bool:
        # base is not mutex itself here, so base u {~l} is mutex iff ~l
        # has a partner in base
        return all(partners[l ^ 1] & base for l in ids if not base >> l & 1)

    def pair_ok(L: int, Lp: int) -> bool:
        for act in acting_on.get(L, set()) | acting_on.get(Lp, set()):
            by_head = heads_of[act]
            conds = by_head.get(L, ()), by_head.get(Lp, ())
            # condition on simultaneous addition
            for ids1, mask1 in conds[0]:
                for ids2, mask2 in conds[1]:
                    both = mask1 | mask2
                    if not (set_mutex(ids1, both) or set_mutex(ids2, both)):
                        return False
            # condition on addition next to persistence
            for head, other, head_conds in ((L, Lp, conds[0]),
                                            (Lp, L, conds[1])):
                if other == head ^ 1:
                    continue
                deleting = by_head.get(other ^ 1, ())
                for ids, mask in head_conds:
                    if partners[other] & mask or set_mutex(ids, mask):
                        continue
                    base = mask | 1 << other
                    if not any(implies(base, ids2) for ids2, _ in deleting):
                        return False
        return True

    alive = [(i, j) for i in range(len(lits)) for j in range(i + 1, len(lits))
             if partners[i] >> j & 1]
    changed = True
    while changed:
        changed = False
        for i, j in alive:
            if partners[i] >> j & 1 and not pair_ok(i, j):
                partners[i] &= ~(1 << j)
                partners[j] &= ~(1 << i)
                changed = True
        alive = [(i, j) for i, j in alive if partners[i] >> j & 1]
    return MutexSet(lits, partners)


# --- bundled analysis context ----------------------------------------------

class Context(NamedTuple):
    """Everything the translations need, computed once per problem."""

    problem: ConformantProblem
    pi: PICNF
    rel: Masks
    ci: Tuple[Clause, ...]
    mutexes: MutexSet

    def relevant_clause_set(self, L: Literal) -> RelevantClauseSet:
        return relevant_clauses(self.ci, L, self.rel)


def build_context(problem: ConformantProblem,
                  pi_cap: int = DEFAULT_PI_CLAUSE_CAP) -> Context:
    pi = prime_implicates(problem.init, problem.fluents, pi_cap)
    return Context(problem, pi, relevance(problem), c_i(pi),
                   mutex_set(problem, pi))
