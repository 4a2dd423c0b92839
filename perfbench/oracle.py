"""Independent plan oracle for the benchmark.

It judges a plan against the *source* conformant problem as parsed from
the generated PDDL: it enumerates the possible initial states itself,
applies conditional (and `oneof`) effects itself, and checks goal
literals and goal clauses.  It shares no code with `kplan.verify` or
`kplan.model`'s progression, so a defect there cannot hide behind it.

States are ints with one bit per fluent (bit set = fluent true).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

# Step names that the CNF-goal and `oneof` front ends add to a plan.  They
# have no meaning in the source problem, so they are dropped before the
# source actions are simulated; a copy `<action>-c<k>` of a
# nondeterministic source action stands for that action.
INTERNAL_PREFIXES = ("eval-goal-", "reset-")


@dataclass(frozen=True)
class Judgement:
    valid: bool
    reason: str
    initial_states: int
    source_steps: int


def _masks(lits, bit) -> Tuple[int, int]:
    pos = neg = 0
    for l in lits:
        if l.positive:
            pos |= bit[l.fluent]
        else:
            neg |= bit[l.fluent]
    return pos, neg


class SourceOracle:
    """Exact conformance check of a plan over every initial state."""

    def __init__(self, problem):
        fluents = sorted(problem.fluents)
        bit = {f: 1 << i for i, f in enumerate(fluents)}
        self.fluents = fluents
        self.actions: Dict[str, tuple] = {}
        for a in problem.actions:
            rules = [(*_masks(r.condition, bit), bit[r.effect.fluent],
                      r.effect.positive) for r in a.rules]
            nondet = [(*_masks(r.condition, bit),
                       [_masks(outcome, bit) for outcome in r.outcomes])
                      for r in a.nondet_rules]
            self.actions[a.name] = (_masks(a.preconditions, bit), rules,
                                    nondet)
        self.goal = _masks(problem.goal, bit)
        self.goal_clauses = [_masks(c, bit) for c in problem.goal_clauses]
        self.initial = self._enumerate(problem.init, bit)

    def _enumerate(self, clauses, bit) -> List[int]:
        """Depth-first assignment of the fluents in bit order; a clause is
        tested as soon as its highest fluent is assigned."""
        n = len(self.fluents)
        by_last: List[List[Tuple[int, int]]] = [[] for _ in range(n)]
        for c in clauses:
            pos, neg = _masks(c, bit)
            by_last[(pos | neg).bit_length() - 1].append((pos, neg))
        states: List[int] = []
        stack = [(0, 0)]
        while stack:
            i, s = stack.pop()
            if i == n:
                states.append(s)
                continue
            for value in (1, 0):
                t = s | (value << i)
                if all(t & pos or ~t & neg for pos, neg in by_last[i]):
                    stack.append((i + 1, t))
        return sorted(states)

    def _successors(self, name: str, s: int) -> List[int]:
        (pre_pos, pre_neg), rules, nondet = self.actions[name]
        if s & pre_pos != pre_pos or s & pre_neg:
            raise ValueError(f"preconditions of {name} do not hold")
        add_pos = add_neg = 0
        for c_pos, c_neg, eff, positive in rules:
            if s & c_pos == c_pos and not s & c_neg:
                if positive:
                    add_pos |= eff
                else:
                    add_neg |= eff
        branches = [(add_pos, add_neg)]
        for c_pos, c_neg, outcomes in nondet:
            if s & c_pos == c_pos and not s & c_neg:
                branches = [(bp | op, bn | on) for bp, bn in branches
                            for op, on in outcomes]
        out = []
        for bp, bn in branches:
            if bp & bn:
                raise ValueError(f"{name} adds complementary literals")
            out.append((s & ~bn) | bp)
        return out

    def _goal_holds(self, s: int) -> bool:
        pos, neg = self.goal
        return (s & pos == pos and not s & neg
                and all(s & cp or ~s & cn for cp, cn in self.goal_clauses))

    def source_steps(self, steps: Sequence[str]) -> List[str]:
        """Map a reported plan onto source action names."""
        out = []
        for name in steps:
            if name in self.actions:
                out.append(name)
                continue
            if name.startswith(INTERNAL_PREFIXES):
                continue
            base, sep, k = name.rpartition("-c")
            if sep and k.isdigit() and base in self.actions \
                    and self.actions[base][2]:
                out.append(base)
                continue
            raise ValueError(f"step {name} names no source action")
        return out

    def check(self, steps: Sequence[str]) -> Judgement:
        total = len(self.initial)
        try:
            source = self.source_steps(steps)
        except ValueError as exc:
            return Judgement(False, str(exc), total, 0)
        # reachable state -> number of initial states that lead to it
        belief: Dict[int, int] = {s: 1 for s in self.initial}
        for idx, name in enumerate(source):
            nxt: Dict[int, int] = {}
            for s, weight in belief.items():
                try:
                    succs = self._successors(name, s)
                except ValueError as exc:
                    return Judgement(False, f"step {idx}: {exc}", total,
                                     len(source))
                for t in succs:
                    nxt[t] = nxt.get(t, 0) + weight
            belief = nxt
        bad = sum(w for s, w in belief.items() if not self._goal_holds(s))
        if bad:
            return Judgement(False, f"goal fails from {bad} of {total} "
                             "initial states", total, len(source))
        return Judgement(True, "conformant", total, len(source))
