"""The benchmark's workloads: which instances each one cycles over, the
`kplan` command each op runs, and the answers each op is checked against.

Why these instances (sizes from a traced run on a 2-core host):

solve      -- bomb and safe are wide: `planner.hadd` is 58-77 % of the op.
              corners-square-8 and square-center-6 are deep: successor
              generation and state hashing outside `hadd` dominate.
              ring-4 spends most of its time in `verify`; sgripper-3 runs
              the `oneof` copies and resets.
translate  -- no search and no validation in the timed op (the benchmark
              searches each emitted problem once, untimed, to check it).
              bomb-16-16 and safe-40 are dominated by mutexes, disjtoy-9
              and square-center-8 by `ktm` and emission, disjtoy-9 kmodels
              by model enumeration and sortnet-7 ki:1 (the CNF-goal front
              end) by the width search.
validate   -- search and translation bypassed.  Valid plans make `verify`
              enumerate every initial state; invalid ones exit early.
cnf-goal   -- the CNF-goal ladder: sortnet-5 solve climbs from k1
              (unsolvable) to kmodels, and sortnet-6 kmodels translates by
              model enumeration.

solve and translate are the workloads of BENCHMARK.json, so every op in
them must pass its check.  validate and cnf-goal hold the ops that fail
today (the CNF-goal defect; the state cap that ring-5 hits), so they are
run by hand (`--workload validate`, `cnf-goal` or `all`), where their
failures are counted, not excluded.  validate builds no encoding, so the
end-to-end encoding counts would read 0 on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple


@dataclass(frozen=True)
class Op:
    """One benchmark operation: a `kplan` subcommand on one instance."""

    name: str
    family: str
    params: Tuple[int, ...]
    scheme: Optional[str] = None            # translate only
    plan: Optional[Tuple[str, ...]] = None  # validate only
    expect_valid: Optional[bool] = None     # validate only

    @property
    def command(self) -> str:
        """The `kplan` subcommand the op runs."""
        if self.plan is not None:
            return "validate"
        return "solve" if self.scheme is None else "translate"

    @property
    def instance(self) -> str:
        return _stem(self.family, self.params)

    def forced_length(self) -> Optional[int]:
        """Plan length every plan must have: safe-n needs n tries, and
        bomb-x-y with y >= x toilets needs x dunks."""
        if self.family == "safe":
            return self.params[0]
        if self.family == "bomb" and self.params[1] >= self.params[0]:
            return self.params[0]
        return None


def _stem(family: str, params: Tuple[int, ...]) -> str:
    return "-".join([family, *map(str, params)])


def _solve(family: str, *params: int) -> Op:
    return Op(_stem(family, params), family, params)


def _translate(family: str, params: Tuple[int, ...], scheme: str,
               name: Optional[str] = None) -> Op:
    return Op(name or _stem(family, params), family, params, scheme)


def _ring_plan(n: int) -> Tuple[str, ...]:
    return ("close", "lock", "fwd") * n


def _square_center_plan(n: int) -> Tuple[str, ...]:
    # saturate into the (1, 1) corner, then walk to the centre
    steps = n // 2
    return ("left",) * (n - 1) + ("down",) * (n - 1) \
        + ("right",) * steps + ("up",) * steps


def _bubble_network(n: int) -> Tuple[str, ...]:
    return tuple(f"cmp-{j}-{j + 1}"
                 for p in range(n - 1) for j in range(1, n - p))


def _validate_pair(family: str, n: int, valid: Tuple[str, ...],
                   invalid: Optional[Tuple[str, ...]]) -> Tuple[Op, ...]:
    stem = _stem(family, (n,))
    ops = [Op(f"{stem}-valid", family, (n,), plan=valid, expect_valid=True)]
    if invalid is not None:
        ops.append(Op(f"{stem}-invalid", family, (n,), plan=invalid,
                      expect_valid=False))
    return tuple(ops)


SOLVE = (
    _solve("bomb", 10, 10),
    _solve("bomb", 12, 4),
    _solve("safe", 25),
    _solve("square-center", 6),
    _solve("corners-square", 8),
    _solve("ring", 4),
    _solve("sgripper", 3),
)

TRANSLATE = (
    _translate("bomb", (16, 16), "ki:1"),
    _translate("safe", (40,), "ki:1"),
    _translate("disjtoy", (9,), "ks0"),
    _translate("square-center", (8,), "ks0"),
    # emits the same problem as disjtoy-9 ks0, by model enumeration
    _translate("disjtoy", (9,), "kmodels", "disjtoy-9-kmodels"),
    _translate("sortnet", (7,), "ki:1"),
)

VALIDATE = (
    # ring-n: n * 4^n initial states (1024 for n = 4, 5120 for n = 5)
    *_validate_pair("ring", 4, _ring_plan(4), _ring_plan(4)[:-2]),
    # disjtoy-12: 4095 initial states
    *_validate_pair("disjtoy", 12, tuple(f"go-{i}" for i in range(1, 13)),
                    tuple(f"go-{i}" for i in range(1, 12))),
    *_validate_pair("square-center", 15, _square_center_plan(15),
                    _square_center_plan(15)[:-1]),
    *_validate_pair("sortnet", 5, _bubble_network(5),
                    ("cmp-1-5", "cmp-1-4", "cmp-2-3", "cmp-3-4", "cmp-4-5",
                     "cmp-1-2")),
    *_validate_pair("ring", 5, _ring_plan(5), None),
)

# plans of the sortnet encodings leave inputs unsorted (7 of 32 and 9 of
# 64 initial states)
CNF_GOAL = (
    _solve("sortnet", 5),
    _translate("sortnet", (6,), "kmodels"),
)

WORKLOADS = {"solve": SOLVE, "translate": TRANSLATE, "validate": VALIDATE,
             "cnf-goal": CNF_GOAL}

# The untimed warm-up op of each workload's set-up: a short one, so that
# importing and generating are a visible share of `setup_s`.
WARMUP = {"solve": "sgripper-3", "translate": "bomb-16-16",
          "validate": "ring-4-valid", "cnf-goal": "sortnet-5"}

# Seconds one untraced instance cycle takes on a 2-core x86 host, with its
# share of the cold set-up passes and its checks, and the seconds a run
# spends outside its cycles (import, files, oracles); a run of
# `--seconds S` times round((S - FIXED_SECONDS) / CYCLE_SECONDS) cycles.
# The searches that check the emitted translate problems (about 30 s) are
# not counted: they run in the first run of a checkout only, later runs
# read their verdicts from disk (`run.Harness.verdict`).
CYCLE_SECONDS = {"solve": 4.3, "translate": 7.0, "validate": 2.6,
                 "cnf-goal": 2.6}
FIXED_SECONDS = {"solve": 2.0, "translate": 3.0, "validate": 2.0,
                 "cnf-goal": 2.0}
