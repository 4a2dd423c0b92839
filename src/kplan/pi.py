"""Prime-implicate form of the initial clause set and entailment services.

Once the clause set is in prime-implicate (PI) form, entailment of a
literal under a tag reduces to a subsumption test, which keeps every
query downstream (closures, tag consistency, relevant clauses)
polynomial.  Normalization uses Tison's method: resolve variable by
variable in a fixed order with eager subsumption.  The module also holds
the one model enumerator, which the spec builders, merge checks and the
validation oracles share; PI form makes its models over any subset of
the fluents exact (``PICNF.models``), so ``prime_implicates``, which
computes every prime implicate, is the one place that builds a PICNF.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import (Dict, FrozenSet, Iterable, Iterator, List, Optional, Set,
                    Tuple)

from .errors import InconsistentInit, PiBlowup, ValidityUndecidedAtCap
from .model import Clause, Literal, is_tautology, lits_consistent, neg, pos, sorted_lits

DEFAULT_PI_CLAUSE_CAP = 5000
DEFAULT_MODEL_CAP = 4096
DEFAULT_STATE_CAP = 4096

Tag = FrozenSet[Literal]
EMPTY_TAG: Tag = frozenset()


@dataclass(frozen=True)
class Merge:
    """A non-empty tag collection standing for a DNF, aimed at a literal."""

    tags: FrozenSet[Tag]
    target: Literal

    def __post_init__(self):
        if not self.tags:
            raise ValueError("merge needs at least one tag")

    def sort_key(self):
        return (self.target, tuple(sorted(sorted_lits(t) for t in self.tags)))


def _reduce_subsumed(clauses: Iterable[Clause]) -> Set[Clause]:
    """Keep only clauses not subsumed by another (shorter-first scan)."""
    kept: List[Clause] = []
    for c in sorted(set(clauses), key=len):
        if not any(k <= c for k in kept):
            kept.append(c)
    return set(kept)


def enumerate_models(clauses: Iterable[Clause], fluents: Iterable[str],
                     cap: Optional[int] = DEFAULT_MODEL_CAP
                     ) -> Iterator[FrozenSet[Literal]]:
    """Backtracking enumeration of complete consistent states over
    ``fluents`` satisfying ``clauses``.  A literal is pinned by its unit
    clause.  Raises ValidityUndecidedAtCap past ``cap`` states.

    Depth first with an explicit stack over the fluents in sorted order,
    false before true.  The falsified literals form a bitmask, and a
    clause is violated once the mask covers it.  That can first happen
    when its last literal is falsified, so assigning a fluent checks only
    the clauses of the literal it falsifies: the binary ones at once,
    through the mask of their other literals, the others one by one.
    """
    fluents = tuple(sorted(set(fluents)))
    clauses = [frozenset(c) for c in clauses]
    if not all(clauses):
        return
    bit: Dict[Literal, int] = {}
    for c in clauses:
        for l in c:
            bit.setdefault(l, 1 << len(bit))
    partners: Dict[Literal, int] = {}       # x -> the y of clauses {x, y}
    others: Dict[Literal, List[int]] = {}   # x -> masks of its other clauses
    for c in clauses:
        if len(c) == 2:
            x, y = c
            partners[x] = partners.get(x, 0) | bit[y]
            partners[y] = partners.get(y, 0) | bit[x]
        else:
            mask = sum(bit[l] for l in c)
            for l in c:
                others.setdefault(l, []).append(mask)

    literal = [(Literal(f, False), Literal(f, True)) for f in fluents]
    # per depth and value: what assigning it falsifies, and the clauses
    # that could become violated by that
    checks = [[(bit.get(L.negate(), 0), partners.get(L.negate(), 0),
                others.get(L.negate(), ())) for L in pair]
              for pair in literal]
    chosen: List[Literal] = [None] * len(fluents)  # type: ignore[list-item]
    falsified_at = [0] * (len(fluents) + 1)
    tried = [0] * len(fluents)  # values tried at each depth: 0, 1 or 2
    count = 0
    depth = 0
    while depth >= 0:
        if depth == len(fluents):
            count += 1
            if cap is not None and count > cap:
                raise ValidityUndecidedAtCap(
                    f"model enumeration exceeded cap {cap}")
            yield frozenset(chosen)
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


class PICNF:
    """Clause set in prime-implicate form over a fixed fluent universe.

    A pure function of its clauses and fluents: every query is computed
    afresh, and nothing a query learns is kept.  ``component`` maps each
    fluent, those a clause mentions outside the universe included, to the
    least fluent of its connected component; two fluents are connected
    when a chain of prime implicates joins them.  Every prime implicate
    lies within one component, so closures, tag consistency and covers
    split by component.
    """

    def __init__(self, clauses: Iterable[Clause], fluents: Iterable[str]):
        self.clauses: FrozenSet[Clause] = frozenset(clauses)
        self.fluents: Tuple[str, ...] = tuple(sorted(set(fluents)))
        self.units: FrozenSet[Literal] = frozenset(
            next(iter(c)) for c in self.clauses if len(c) == 1)
        # literal -> clauses containing it, for subsumption lookups
        index: Dict[Literal, List[Clause]] = {}
        for c in self.clauses:
            for l in c:
                index.setdefault(l, []).append(c)
        self._index = index
        self._fluent_set = frozenset(self.fluents)
        # fluent -> the least fluent of its component, and that least
        # fluent -> the component's fluents; a clause joins what it meets
        component = {f: f for f in self.fluents}
        for l in index:
            component.setdefault(l.fluent, l.fluent)
        members = {f: [f] for f in component}
        for c in self.clauses:
            roots = {component[l.fluent] for l in c}
            if len(roots) > 1:
                least = min(roots)
                for r in roots - {least}:
                    members[least] += members[r]
                    for f in members.pop(r):
                        component[f] = least
        self.component: Dict[str, str] = component

    @property
    def nonunit_clauses(self) -> FrozenSet[Clause]:
        return frozenset(c for c in self.clauses if len(c) > 1)

    def unknown_fluents(self) -> Tuple[str, ...]:
        """Fluents with neither polarity entailed as a unit."""
        known = {l.fluent for l in self.units}
        return tuple(f for f in self.fluents if f not in known)

    def closure(self, t: Tag) -> FrozenSet[Literal]:
        """t* = all literals entailed by I together with t.

        Read off the index: I, t |= L iff some prime implicate c has
        c \\ ~t within {L}.  So t* is t, the units, and the one literal left
        of each clause through some ~l, l in t, once the literals of ~t are
        removed; if nothing is left of such a clause, or t is complementary,
        I u t is inconsistent and t* is every literal of the universe
        (the fluents and those t mentions).  Literals outside the universe
        are left out.  ``reference_entails_literal`` in the tests is the
        literal-by-literal specification.
        """
        negated = frozenset(l.negate() for l in t)
        out: Optional[Set[Literal]] = None
        if negated.isdisjoint(t):
            out = set(t) | self.units
            for c in itertools.chain.from_iterable(
                    self._index.get(nl, ()) for nl in negated):
                rest = c - negated
                if not rest:
                    out = None  # c lies inside ~t: I u t is inconsistent
                    break
                if len(rest) == 1:
                    out |= rest
        universe = self._fluent_set | {l.fluent for l in t}
        if out is None:
            return frozenset(Literal(f, v) for f in universe
                             for v in (False, True))
        return frozenset(l for l in out if l.fluent in universe)

    def tag_consistent(self, t: Tag) -> bool:
        return lits_consistent(self.closure(t))

    def models(self, variables: Iterable[str],
               cap: Optional[int] = DEFAULT_MODEL_CAP) -> Iterator[FrozenSet[Literal]]:
        """Enumerate the restrictions of the models of I to ``variables``,
        as the assignments to them that the clauses of I within them allow.
        Exact because I is in PI form: an assignment s is inconsistent with
        I iff I entails the clause ~s, iff some prime implicate lies within
        ~s, and so within ``variables``.  Raises ValidityUndecidedAtCap past
        ``cap`` models."""
        varset = frozenset(variables)
        constraints = [c for c in self.clauses
                       if all(l.fluent in varset for l in c)]
        return enumerate_models(constraints, varset, cap=cap)

    def merge_valid(self, m: Merge) -> bool:
        """Check I |= V_{t in m} t: every model of I, restricted to the
        variables of the merge (``models``, exact), contains some tag.
        The model cap guards the inherently hard general case."""
        merge_vars = {l.fluent for t in m.tags for l in t}
        return all(any(t <= model for t in m.tags)
                   for model in self.models(merge_vars))


def prime_implicates(clauses: Iterable[Clause], fluents: Iterable[str],
                     cap: int = DEFAULT_PI_CLAUSE_CAP) -> PICNF:
    """Tison's algorithm: per-variable resolution with eager subsumption."""
    fluents = tuple(sorted(set(fluents)))
    current: Set[Clause] = {frozenset(c) for c in clauses if not is_tautology(c)}
    if frozenset() in current:
        raise InconsistentInit("explicit empty clause in input")
    current = _reduce_subsumed(current)
    for f in fluents:
        p, n = pos(f), neg(f)
        pos_side = [c for c in current if p in c]
        neg_side = [c for c in current if n in c]
        resolvents: Set[Clause] = set()
        for c1, c2 in itertools.product(pos_side, neg_side):
            r = (c1 - {p}) | (c2 - {n})
            if not is_tautology(r):
                resolvents.add(r)
        if resolvents:
            current = _reduce_subsumed(current | resolvents)
        if frozenset() in current:
            raise InconsistentInit("initial clause set is unsatisfiable")
        if len(current) > cap:
            raise PiBlowup(
                f"prime implicate computation exceeded {cap} clauses")
    return PICNF(current, fluents)
