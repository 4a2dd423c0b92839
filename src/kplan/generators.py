"""Benchmark problem generators.

Each generator returns (domain_text, problem_text) in the conformant
input language.  The encodings are written down here in full because the
width and plan-length expectations in the test suite depend on them:

* safe-n: one of n combinations opens the safe; try-c opens it if c is
  the right one.  Width 1; any plan must try all n combinations.
* bomb-x-y: one of x packages is armed; dunking a package into a toilet
  disarms the package (conditionally) and clogs the toilet; flushing
  unclogs.  Width 1; with y >= x the forced plan length is x.
* ring-n: a robot at an unknown position on a ring of n rooms moves
  forward/backward and can close, then lock, the window of the room it
  is in.  Window states start unknown.  Width 1.
* square-center-n / corners-square-n: a robot on an n x n grid starts
  anywhere / in one of the four corners and must reach the center cell
  using saturating moves (moving against a wall leaves it in place).
  Width 1.
* sortnet-n: n unknown boolean inputs; cmp-i-j sorts a pair in place;
  the goal is the CNF statement that the vector is sorted.  Width n.
* disjtoy-n: I = {x1 | ... | xn}; action go-i achieves the target if xi
  holds.  The minimal complete tag set needs all n disjuncts.
* sgripper-n: a one-hand robot carries n balls from room a to room b,
  but moving out of a nondeterministically lands in c or d, from which
  conditional moves reach b.  Exercises the determinizing front-end.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence, Tuple


def _domain(name: str, body: Sequence[str], typing: bool = False) -> str:
    reqs = ":strips :typing :conditional-effects" if typing \
        else ":strips :conditional-effects"
    lines = [f"(define (domain {name})", f"  (:requirements {reqs})"]
    lines += [f"  {line}" for line in body]
    lines.append(")")
    return "\n".join(lines) + "\n"


def _problem(name: str, domain: str, body: Sequence[str]) -> str:
    lines = [f"(define (problem {name})", f"  (:domain {domain})"]
    lines += [f"  {line}" for line in body]
    lines.append(")")
    return "\n".join(lines) + "\n"


def safe(n: int) -> Tuple[str, str]:
    if n < 2:
        raise ValueError("safe needs n >= 2 combinations")
    dom = _domain(f"safe-{n}", [
        "(:types combo)",
        "(:predicates (comb ?c - combo) (open))",
        "(:action try",
        "  :parameters (?c - combo)",
        "  :precondition (and)",
        "  :effect (when (comb ?c) (open)))",
    ], typing=True)
    combos = " ".join(f"c{i}" for i in range(1, n + 1))
    oneof = " ".join(f"(comb c{i})" for i in range(1, n + 1))
    prob = _problem(f"safe-{n}-1", f"safe-{n}", [
        f"(:objects {combos} - combo)",
        f"(:init (not (open)) (oneof {oneof}))",
        "(:goal (open))",
    ])
    return dom, prob


def bomb(x: int, y: int) -> Tuple[str, str]:
    if x < 2 or y < 1:
        raise ValueError("bomb needs x >= 2 packages and y >= 1 toilets")
    dom = _domain(f"bomb-{x}-{y}", [
        "(:types package toilet)",
        "(:predicates (armed ?p - package) (clogged ?t - toilet))",
        "(:action dunk",
        "  :parameters (?p - package ?t - toilet)",
        "  :precondition (not (clogged ?t))",
        "  :effect (and (clogged ?t) (when (armed ?p) (not (armed ?p)))))",
        "(:action flush",
        "  :parameters (?t - toilet)",
        "  :precondition (and)",
        "  :effect (not (clogged ?t)))",
    ], typing=True)
    packages = " ".join(f"p{i}" for i in range(1, x + 1))
    toilets = " ".join(f"t{i}" for i in range(1, y + 1))
    init = [f"(oneof {' '.join(f'(armed p{i})' for i in range(1, x + 1))})"]
    init += [f"(not (clogged t{i}))" for i in range(1, y + 1)]
    goal = " ".join(f"(not (armed p{i}))" for i in range(1, x + 1))
    prob = _problem(f"bomb-{x}-{y}-1", f"bomb-{x}-{y}", [
        f"(:objects {packages} - package {toilets} - toilet)",
        "(:init " + " ".join(init) + ")",
        f"(:goal (and {goal}))",
    ])
    return dom, prob


def ring(n: int) -> Tuple[str, str]:
    if n < 3:
        raise ValueError("ring needs n >= 3 rooms")
    rooms = range(1, n + 1)

    def nxt(i: int) -> int:
        return i % n + 1

    preds = " ".join(f"(pos{i}) (closed{i}) (locked{i})" for i in rooms)
    fwd = " ".join(f"(when (pos{i}) (and (pos{nxt(i)}) (not (pos{i}))))"
                   for i in rooms)
    bwd = " ".join(f"(when (pos{nxt(i)}) (and (pos{i}) (not (pos{nxt(i)}))))"
                   for i in rooms)
    close = " ".join(f"(when (pos{i}) (closed{i}))" for i in rooms)
    lock = " ".join(f"(when (and (pos{i}) (closed{i})) (locked{i}))"
                    for i in rooms)
    dom = _domain(f"ring-{n}", [
        f"(:predicates {preds})",
        f"(:action fwd :parameters () :precondition (and) :effect (and {fwd}))",
        f"(:action bwd :parameters () :precondition (and) :effect (and {bwd}))",
        "(:action close :parameters () :precondition (and)"
        f" :effect (and {close}))",
        f"(:action lock :parameters () :precondition (and) :effect (and {lock}))",
    ])
    init = [f"(oneof {' '.join(f'(pos{i})' for i in rooms)})"]
    init += [f"(unknown (closed{i}))" for i in rooms]
    init += [f"(unknown (locked{i}))" for i in rooms]
    goal = " ".join(f"(locked{i})" for i in rooms)
    prob = _problem(f"ring-{n}-1", f"ring-{n}", [
        "(:init " + " ".join(init) + ")",
        f"(:goal (and {goal}))",
    ])
    return dom, prob


def _grid(n: int, corners_only: bool) -> Tuple[str, str]:
    if n < 3:
        raise ValueError("grid families need n >= 3")
    cells = range(1, n + 1)
    center = (n + 1) // 2
    preds = " ".join(f"(x{i}) (y{i})" for i in cells)

    def moves(axis: str, up: bool) -> str:
        out = []
        for i in cells:
            j = i + 1 if up else i - 1
            if 1 <= j <= n:
                out.append(f"(when ({axis}{i}) (and ({axis}{j})"
                           f" (not ({axis}{i}))))")
        return " ".join(out)

    name = f"corners-square-{n}" if corners_only else f"square-center-{n}"
    dom = _domain(name, [
        f"(:predicates {preds})",
        "(:action right :parameters () :precondition (and)"
        f" :effect (and {moves('x', True)}))",
        "(:action left :parameters () :precondition (and)"
        f" :effect (and {moves('x', False)}))",
        "(:action up :parameters () :precondition (and)"
        f" :effect (and {moves('y', True)}))",
        "(:action down :parameters () :precondition (and)"
        f" :effect (and {moves('y', False)}))",
    ])
    init: List[str] = []
    for axis in ("x", "y"):
        if corners_only:
            init.append(f"(oneof ({axis}1) ({axis}{n}))")
            init += [f"(not ({axis}{i}))" for i in cells if i not in (1, n)]
        else:
            init.append(
                f"(oneof {' '.join(f'({axis}{i})' for i in cells)})")
    prob = _problem(f"{name}-1", name, [
        "(:init " + " ".join(init) + ")",
        f"(:goal (and (x{center}) (y{center})))",
    ])
    return dom, prob


def square_center(n: int) -> Tuple[str, str]:
    return _grid(n, corners_only=False)


def corners_square(n: int) -> Tuple[str, str]:
    return _grid(n, corners_only=True)


def sortnet(n: int) -> Tuple[str, str]:
    if n < 2:
        raise ValueError("sortnet needs n >= 2 inputs")
    bits = range(1, n + 1)
    preds = " ".join(f"(b{i})" for i in bits)
    body = [f"(:predicates {preds})"]
    for i in bits:
        for j in bits:
            if i < j:
                body += [
                    f"(:action cmp-{i}-{j}",
                    "  :parameters () :precondition (and)",
                    f"  :effect (when (and (b{i}) (not (b{j})))"
                    f" (and (not (b{i})) (b{j}))))",
                ]
    dom = _domain(f"sortnet-{n}", body)
    init = " ".join(f"(unknown (b{i}))" for i in bits)
    goal = " ".join(f"(or (not (b{i})) (b{i + 1}))" for i in bits if i < n)
    prob = _problem(f"sortnet-{n}-1", f"sortnet-{n}", [
        f"(:init {init})",
        f"(:goal (and {goal}))",
    ])
    return dom, prob


def disjtoy(n: int) -> Tuple[str, str]:
    if n < 2:
        raise ValueError("disjtoy needs n >= 2 disjuncts")
    xs = range(1, n + 1)
    preds = " ".join(f"(x{i})" for i in xs) + " (trg)"
    body = [f"(:predicates {preds})"]
    for i in xs:
        body.append(f"(:action go-{i} :parameters () :precondition (and)"
                    f" :effect (when (x{i}) (trg)))")
    dom = _domain(f"disjtoy-{n}", body)
    disj = " ".join(f"(x{i})" for i in xs)
    prob = _problem(f"disjtoy-{n}-1", f"disjtoy-{n}", [
        f"(:init (or {disj}) (not (trg)))",
        "(:goal (trg))",
    ])
    return dom, prob


def sgripper(n: int) -> Tuple[str, str]:
    if n < 1:
        raise ValueError("sgripper needs n >= 1 balls")
    balls = range(1, n + 1)
    preds = ["(at-a) (at-b) (at-c) (at-d) (handfree)"]
    preds += [f"(ball-a-{i}) (ball-b-{i}) (carry-{i})" for i in balls]
    body = [f"(:predicates {' '.join(preds)})"]
    for i in balls:
        body.append(
            f"(:action pick-{i} :parameters () :precondition (and)"
            f" :effect (when (and (at-a) (ball-a-{i}) (handfree))"
            f" (and (carry-{i}) (not (ball-a-{i})) (not (handfree)))))")
        body.append(
            f"(:action drop-{i} :parameters () :precondition (and)"
            f" :effect (when (and (at-b) (carry-{i}))"
            f" (and (ball-b-{i}) (handfree) (not (carry-{i})))))")
    body += [
        "(:action move-out :parameters () :precondition (at-a)",
        "  :effect (and (not (at-a)) (oneof (at-c) (at-d))))",
        "(:action move-c-b :parameters () :precondition (and)",
        "  :effect (when (at-c) (and (at-b) (not (at-c)))))",
        "(:action move-d-b :parameters () :precondition (and)",
        "  :effect (when (at-d) (and (at-b) (not (at-d)))))",
        "(:action move-b-a :parameters () :precondition (at-b)",
        "  :effect (and (at-a) (not (at-b))))",
    ]
    dom = _domain(f"sgripper-{n}", body)
    init = ["(at-a)", "(not (at-b))", "(not (at-c))", "(not (at-d))",
            "(handfree)"]
    for i in balls:
        init += [f"(ball-a-{i})", f"(not (ball-b-{i}))", f"(not (carry-{i}))"]
    goal = " ".join(f"(ball-b-{i})" for i in balls)
    prob = _problem(f"sgripper-{n}-1", f"sgripper-{n}", [
        "(:init " + " ".join(init) + ")",
        f"(:goal (and {goal}))",
    ])
    return dom, prob


GENERATORS: Dict[str, Callable[..., Tuple[str, str]]] = {
    "safe": safe,
    "bomb": bomb,
    "ring": ring,
    "square-center": square_center,
    "corners-square": corners_square,
    "sortnet": sortnet,
    "disjtoy": disjtoy,
    "sgripper": sgripper,
}


def generate(family: str, params: Sequence[int]) -> Tuple[str, str]:
    """Raises ValueError on an unknown family, a wrong number of
    parameters or a parameter out of range."""
    if family not in GENERATORS:
        raise ValueError(f"unknown family '{family}'; know: "
                         + ", ".join(sorted(GENERATORS)))
    code = GENERATORS[family].__code__
    names = code.co_varnames[:code.co_argcount]
    if len(params) != len(names):
        raise ValueError(f"{family} takes {len(names)} parameter(s) "
                         f"({', '.join(names)}), not {len(params)}")
    return GENERATORS[family](*[int(p) for p in params])
