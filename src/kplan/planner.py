"""Embedded satisficing planner for the translated problems.

Greedy best-first search guided by an additive delete-relaxation
heuristic evaluated over conditional effects; merge actions cost zero so
heuristic values and optimal plan lengths are measured in source actions.
Also provides a breadth-first oracle that is exact on small instances.
"""

from __future__ import annotations

import heapq
import itertools
import time
from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Dict, FrozenSet, List, Optional, Tuple

from .errors import InconsistentResult
from .model import ClassicalProblem, Plan, run_plan

INF = float("inf")


class Grounded:
    """Indexed form of a classical problem: atoms as ints, states as
    frozensets of true atom ids (closed world)."""

    def __init__(self, K: ClassicalProblem):
        self.problem = K
        self.atoms: List[str] = sorted(K.fluents)
        self.aid: Dict[str, int] = {a: i for i, a in enumerate(self.atoms)}
        self.init: FrozenSet[int] = frozenset(
            self.aid[l.fluent] for l in K.init if l.positive)
        self.goal: List[Tuple[int, bool]] = sorted(
            (self.aid[l.fluent], l.positive) for l in K.goal)
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
        # relaxed rules: props are 2*atom (true) / 2*atom+1 (false)
        self.relaxed = []
        for name, pre, rules, cost in self.actions:
            pre_props = [2 * i + (0 if v else 1) for i, v in pre]
            for cond, eff, sign in rules:
                props = pre_props + [2 * i + (0 if v else 1) for i, v in cond]
                eff_prop = 2 * eff + (0 if sign else 1)
                self.relaxed.append((tuple(props), eff_prop, cost))
        self.rules_by_prop: Dict[int, List[int]] = {}
        for ridx, (props, _, _) in enumerate(self.relaxed):
            for p in set(props):
                self.rules_by_prop.setdefault(p, []).append(ridx)
        self.goal_props = [2 * i + (0 if v else 1) for i, v in self.goal]
        # hadd's per-call starting point, copied rather than rebuilt
        self._counter0 = [len(set(p)) for p, _, _ in self.relaxed]
        self._partial0 = [float(c) for _, _, c in self.relaxed]
        self._unconditional = [(eff, float(c))
                               for (_, eff, c), cnt in zip(self.relaxed,
                                                           self._counter0)
                               if cnt == 0]

    def holds(self, state: FrozenSet[int], lits) -> bool:
        return all((i in state) == v for i, v in lits)

    def applicable(self, state: FrozenSet[int]):
        for idx, (_, pre, _, _) in enumerate(self.actions):
            if self.holds(state, pre):
                yield idx

    def apply(self, state: FrozenSet[int], action_idx: int) -> FrozenSet[int]:
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

    def is_goal(self, state: FrozenSet[int]) -> bool:
        return self.holds(state, self.goal)

    def hadd(self, state: FrozenSet[int]) -> float:
        """Additive heuristic: sum over goal props of cheapest relaxed
        achievement cost, counting rule conditions and preconditions."""
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


class SolveStatus(Enum):
    SOLVED = "solved"
    UNSOLVABLE = "unsolvable"
    BUDGET_OUT = "budget-out"


@dataclass
class SolveResult:
    status: SolveStatus
    plan: Optional[Plan]
    expanded: int
    generated: int
    seconds: float


def _reconstruct(parents, state, grounded: Grounded) -> Plan:
    steps: List[str] = []
    while True:
        entry = parents[state]
        if entry is None:
            break
        prev, action_idx = entry
        steps.append(grounded.actions[action_idx][0])
        state = prev
    steps.reverse()
    return Plan.for_problem(steps, grounded.problem)


def solve(K: ClassicalProblem, max_nodes: int = 200_000,
          max_seconds: Optional[float] = None) -> SolveResult:
    """Greedy best-first search; ties broken by FIFO order.

    Returns UNSOLVABLE only when the open list empties with the budget
    intact (exhaustive closed list, with heuristic pruning limited to
    relaxed-unreachable states, which cannot reach the goal).
    """
    start = time.monotonic()
    g = Grounded(K)
    init = g.init
    parents: Dict[FrozenSet[int], Optional[Tuple[FrozenSet[int], int]]] = {
        init: None}
    if g.is_goal(init):
        return SolveResult(SolveStatus.SOLVED, _reconstruct(parents, init, g),
                           0, 1, time.monotonic() - start)
    h0 = g.hadd(init)
    if h0 == INF:
        return SolveResult(SolveStatus.UNSOLVABLE, None, 0, 1,
                           time.monotonic() - start)
    tie = itertools.count()
    open_heap: List[Tuple[float, int, FrozenSet[int]]] = [(h0, next(tie), init)]
    expanded = generated = 0
    truncated = False
    while open_heap:
        if expanded >= max_nodes or (
                max_seconds is not None
                and time.monotonic() - start > max_seconds):
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
                plan = _reconstruct(parents, succ, g)
                if not run_plan(K, plan).achieved_goal:
                    raise InconsistentResult(
                        "internal plan check failed: the reconstructed "
                        "plan does not reach the goal")
                return SolveResult(SolveStatus.SOLVED, plan, expanded,
                                   generated, time.monotonic() - start)
            h = g.hadd(succ)
            if h == INF:
                continue
            heapq.heappush(open_heap, (h, next(tie), succ))
    status = SolveStatus.BUDGET_OUT if truncated else SolveStatus.UNSOLVABLE
    return SolveResult(status, None, expanded, generated,
                       time.monotonic() - start)


def bfs_optimal(K: ClassicalProblem, depth_cap: int = 10,
                max_states: int = 2_000_000) -> Optional[Plan]:
    """Shortest plan counting non-merge steps only (merge steps are free),
    via 0/1-cost breadth-first search.  None if no plan within the cap."""
    g = Grounded(K)
    init = g.init
    dist: Dict[FrozenSet[int], int] = {init: 0}
    parents: Dict[FrozenSet[int], Optional[Tuple[FrozenSet[int], int]]] = {
        init: None}
    dq = deque([init])
    while dq:
        state = dq.popleft()
        d = dist[state]
        if g.is_goal(state):
            return _reconstruct(parents, state, g)
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
