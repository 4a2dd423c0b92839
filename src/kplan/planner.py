"""Embedded satisficing planner for the translated problems.

Greedy best-first search guided by an additive delete-relaxation
heuristic evaluated over conditional effects, in which merge actions
cost one too: at zero, a state that lacks only merges would have h = 0
without being a goal, a plateau that the search walks breadth-first.  The
breadth-first oracle, exact on small instances, counts merges at zero, so
optimal plan lengths are measured in source actions.
"""

from __future__ import annotations

import heapq
import itertools
import time
from collections import deque
from enum import Enum
from typing import Dict, List, NamedTuple, Optional, Tuple

from .errors import InconsistentResult
from .model import ClassicalProblem, Plan, is_merge, run_plan

INF = float("inf")


class Grounded:
    """Indexed form of a classical problem: atoms as ints and a state as an
    int bitmask whose bit i is set iff atom i is true (closed world).
    Preconditions, rule conditions and the goal are (pos_mask, neg_mask)
    pairs: they hold in a state iff every pos bit is set and no neg bit."""

    def __init__(self, K: ClassicalProblem):
        self.atoms: List[str] = sorted(K.fluents)
        self.aid: Dict[str, int] = {a: i for i, a in enumerate(self.atoms)}
        self.init: int = self._masks(l for l in K.init if l.positive)[0]
        self.goal: Tuple[int, int] = self._masks(K.goal)
        # (name, precondition masks, effects, cost); the rules that share
        # a condition make one (cond_pos, cond_neg, add, delete) effect
        self.actions = []
        # relaxed rules of cost 1: props are 2*atom (true) / 2*atom+1 (false)
        relaxed = []
        for a in K.actions:
            pre_props = self._props(a.preconditions)
            effects: Dict[Tuple[int, int], List[int]] = {}
            for r in a.rules:
                add_delete = effects.setdefault(self._masks(r.condition),
                                                [0, 0])
                add_delete[not r.effect.positive] |= (
                    1 << self.aid[r.effect.fluent])
                relaxed.append((tuple(pre_props + self._props(r.condition)),
                                self._prop(r.effect)))
            self.actions.append(
                (a.name, self._masks(a.preconditions),
                 tuple((cp, cn, add, delete)
                       for (cp, cn), (add, delete) in effects.items()),
                 0 if is_merge(a.name) else 1))
        self.goal_props = self._props(K.goal)
        # hadd's per-call starting point, copied rather than rebuilt.  It
        # keeps only the rules that can lead to a goal prop (the backward
        # closure of the goal), in the order of ``relaxed``; the other
        # rules cannot change a goal cost.
        relevant = set(self.goal_props)
        by_effect: Dict[int, List[Tuple[int, ...]]] = {}
        for props, eff in relaxed:
            by_effect.setdefault(eff, []).append(props)
        frontier = list(relevant)
        while frontier:
            for props in by_effect.get(frontier.pop(), ()):
                added = set(props) - relevant
                relevant |= added
                frontier.extend(added)
        rules = [rule for rule in relaxed if rule[1] in relevant]
        n_props = 2 * len(self.atoms)
        self._watchers = [[] for _ in range(n_props)]
        for ridx, (props, _) in enumerate(rules):
            for p in set(props):
                self._watchers[p].append(ridx)
        self._effect_prop = [eff for _, eff in rules]
        self._counter0 = [len(set(p)) for p, _ in rules]
        self._partial0 = [1] * len(rules)
        self._unconditional = [eff for p, eff in rules if not p]
        # the relevant props as (prop, atom), split by the atom value
        # that makes them true
        self._true_props = [(p, p >> 1) for p in sorted(relevant)
                            if not p & 1]
        self._false_props = [(p, p >> 1) for p in sorted(relevant) if p & 1]
        self._cost0 = [INF] * n_props
        self._is_goal_prop = bytearray(n_props)
        for p in self.goal_props:
            self._is_goal_prop[p] = 1

    def _masks(self, lits) -> Tuple[int, int]:
        masks = [0, 0]
        for l in lits:
            masks[not l.positive] |= 1 << self.aid[l.fluent]
        return masks[0], masks[1]

    def _prop(self, lit) -> int:
        return 2 * self.aid[lit.fluent] + (not lit.positive)

    def _props(self, lits) -> List[int]:
        return sorted(map(self._prop, lits))

    def applicable(self, state: int):
        for idx, (_, (pos_mask, neg_mask), _, _) in enumerate(self.actions):
            if state & pos_mask == pos_mask and not state & neg_mask:
                yield idx

    def apply(self, state: int, action_idx: int) -> int:
        name, _, effects, _ = self.actions[action_idx]
        add = delete = 0
        for cond_pos, cond_neg, eff_add, eff_delete in effects:
            if state & cond_pos == cond_pos and not state & cond_neg:
                add |= eff_add
                delete |= eff_delete
        conflict = add & delete
        if conflict:
            bad = [a for i, a in enumerate(self.atoms) if conflict >> i & 1]
            raise InconsistentResult(
                f"action {name} adds complementary literals on {bad}")
        return state & ~delete | add

    def is_goal(self, state: int) -> bool:
        pos_mask, neg_mask = self.goal
        return state & pos_mask == pos_mask and not state & neg_mask

    def hadd(self, state: int) -> float:
        """Additive heuristic: sum over goal props of cheapest relaxed
        achievement cost, counting rule conditions and preconditions.

        Props are settled in order of their integer cost, from a bucket
        queue, as in Knuth's generalization of Dijkstra's algorithm (exact
        because a rule's cost exceeds each of its condition costs).
        The computation stops once every goal prop is settled."""
        unsettled_goals = len(self.goal_props)
        if not unsettled_goals:
            return 0
        cost = self._cost0.copy()
        counter = self._counter0.copy()
        partial = self._partial0.copy()
        watchers, effect_prop = self._watchers, self._effect_prop
        is_goal_prop = self._is_goal_prop
        layer = [p for p, i in self._true_props if state >> i & 1]
        layer += [p for p, i in self._false_props if not state >> i & 1]
        for p in layer:
            cost[p] = 0
        buckets = {0: layer}
        for eff in self._unconditional:
            if 1 < cost[eff]:
                cost[eff] = 1
                buckets.setdefault(1, []).append(eff)
        keys = sorted(buckets)
        while keys:
            c = heapq.heappop(keys)
            for p in buckets[c]:
                if cost[p] != c:  # settled earlier at a lower cost
                    continue
                if is_goal_prop[p]:
                    unsettled_goals -= 1
                    if not unsettled_goals:
                        return sum(cost[g] for g in self.goal_props)
                for ridx in watchers[p]:
                    partial[ridx] += c
                    counter[ridx] -= 1
                    if not counter[ridx]:
                        value = partial[ridx]
                        eff = effect_prop[ridx]
                        if value < cost[eff]:
                            cost[eff] = value
                            if value in buckets:
                                buckets[value].append(eff)
                            else:
                                buckets[value] = [eff]
                                heapq.heappush(keys, value)
            del buckets[c]
        return INF  # some goal prop is relaxed-unreachable


class SolveStatus(Enum):
    SOLVED = "solved"
    UNSOLVABLE = "unsolvable"
    BUDGET_OUT = "budget-out"


class SolveResult(NamedTuple):
    status: SolveStatus
    plan: Optional[Plan]
    expanded: int
    generated: int
    evaluated: int  # heuristic (hadd) calls
    seconds: float


def _reconstruct(parents, state: int, grounded: Grounded) -> Plan:
    steps: List[str] = []
    while True:
        entry = parents[state]
        if entry is None:
            break
        prev, action_idx = entry
        steps.append(grounded.actions[action_idx][0])
        state = prev
    steps.reverse()
    return Plan(tuple(steps))


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
    parents: Dict[int, Optional[Tuple[int, int]]] = {init: None}
    if g.is_goal(init):
        return SolveResult(SolveStatus.SOLVED, _reconstruct(parents, init, g),
                           0, 1, 0, time.monotonic() - start)
    h0 = g.hadd(init)
    evaluated = 1
    if h0 == INF:
        return SolveResult(SolveStatus.UNSOLVABLE, None, 0, 1, evaluated,
                           time.monotonic() - start)
    tie = itertools.count()
    open_heap: List[Tuple[float, int, int]] = [(h0, next(tie), init)]
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
                                   generated, evaluated,
                                   time.monotonic() - start)
            h = g.hadd(succ)
            evaluated += 1
            if h == INF:
                continue
            heapq.heappush(open_heap, (h, next(tie), succ))
    status = SolveStatus.BUDGET_OUT if truncated else SolveStatus.UNSOLVABLE
    return SolveResult(status, None, expanded, generated, evaluated,
                       time.monotonic() - start)


def bfs_optimal(K: ClassicalProblem, depth_cap: int = 10,
                max_states: int = 2_000_000) -> Optional[Plan]:
    """Shortest plan counting non-merge steps only (merge steps are free),
    via 0/1-cost breadth-first search.  None if no plan within the cap."""
    g = Grounded(K)
    init = g.init
    dist: Dict[int, int] = {init: 0}
    parents: Dict[int, Optional[Tuple[int, int]]] = {init: None}
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
