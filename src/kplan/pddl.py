"""PDDL-subset front end and classical PDDL emission.

Input language: typed STRIPS schemas with conditional effects (and /
when / not / forall, plus oneof effects for nondeterministic actions) and
an :init accepting literals, (or ...), (oneof ...) and (unknown f).
Parsing yields the grounder's forms: preconditions, conditions and goals
are literal conjunctions, and each :init entry is a list of clauses.
Output: standard classical PDDL with conditional effects, with tagged
atoms serialized as flat predicate names.

Grounding is deliberately plain: instantiate schemas over typed objects,
name ground atoms and actions by joining the pieces with "-" (two that
print alike are an input error), and prune instances whose conditions
are internally contradictory.
"""

from __future__ import annotations

import itertools
import math
import re
from typing import (Dict, FrozenSet, Iterable, List, NamedTuple, Sequence,
                    Set, Tuple, Union)

from .errors import GroundingBlowup, PddlSyntaxError, UnsupportedFeature
from .model import (
    Action,
    ClassicalProblem,
    Clause,
    ConformantProblem,
    Literal,
    MERGE_PREFIX,
    NondetRule,
    Rule,
    conformant_problem,
    is_merge,
    lits_consistent,
    sorted_lits,
)

# grounding stops with GroundingBlowup past this many rule instances
RULE_CAP = 1_000_000


# --- s-expressions -----------------------------------------------------------

class Sym(str):
    """An atom token that remembers where it came from."""

    line: int
    column: int

    def __new__(cls, text: str, line: int, column: int):
        obj = super().__new__(cls, text)
        obj.line = line
        obj.column = column
        return obj


SExpr = Union[Sym, List["SExpr"]]


# a line break, a comment, a parenthesis or an atom; the rest (space, tab
# and CR) separates tokens
_TOKEN = re.compile(r"\n|;[^\n]*|[()]|[^ \t\r\n();]+")


def _tokenize(text: str):
    line, start = 1, 0  # the current line and the offset it starts at
    for m in _TOKEN.finditer(text):
        tok = m.group()
        if tok == "\n":
            line, start = line + 1, m.end()
        elif tok[0] != ";":
            yield Sym(tok, line, m.start() - start + 1)


def parse_sexprs(text: str) -> List[SExpr]:
    stack: List[List[SExpr]] = [[]]
    opens: List[Sym] = []
    for tok in _tokenize(text):
        if tok == "(":
            stack.append([])
            opens.append(tok)
        elif tok == ")":
            if len(stack) == 1:
                raise PddlSyntaxError("unbalanced ')'", tok.line, tok.column)
            done = stack.pop()
            opens.pop()
            stack[-1].append(done)
        else:
            stack[-1].append(tok)
    if len(stack) != 1:
        o = opens[-1]
        raise PddlSyntaxError("unclosed '('", o.line, o.column)
    return stack[0]


def _err(node: SExpr, message: str) -> PddlSyntaxError:
    while isinstance(node, list) and node:
        node = node[0]
    if isinstance(node, Sym):
        return PddlSyntaxError(message, node.line, node.column)
    return PddlSyntaxError(message)


def _head(node: SExpr) -> str:
    if isinstance(node, list) and node and isinstance(node[0], Sym):
        return str(node[0])
    return ""


# --- AST ---------------------------------------------------------------------

class LiteralTemplate(NamedTuple):  # an atom and its sign
    predicate: str
    args: Tuple[str, ...]  # variables (?x) or constants
    positive: bool


ClauseTemplate = Tuple[LiteralTemplate, ...]


# effect tree nodes; a leaf is a LiteralTemplate
class EffAnd(NamedTuple):
    parts: Tuple["EffNode", ...]


class EffWhen(NamedTuple):
    condition: Tuple[LiteralTemplate, ...]
    effect: "EffNode"


class EffForall(NamedTuple):
    variable: str
    type: str
    body: "EffNode"


class EffOneof(NamedTuple):
    outcomes: Tuple["EffNode", ...]


EffNode = Union[LiteralTemplate, EffAnd, EffWhen, EffForall, EffOneof]


class ActionSchema(NamedTuple):
    name: str
    params: Tuple[Tuple[str, str], ...]  # (variable, type)
    precondition: Tuple[LiteralTemplate, ...]
    effect: EffNode


class DomainAst(NamedTuple):
    name: str
    types: Dict[str, str]               # type -> parent
    constants: Tuple[Tuple[str, str], ...]
    predicates: Dict[str, Tuple[str, ...]]  # name -> parameter types
    actions: Tuple[ActionSchema, ...]


class ProblemAst(NamedTuple):
    name: str
    domain_name: str  # a Sym, which knows its position for errors
    objects: Tuple[Tuple[str, str], ...]
    init: Tuple[ClauseTemplate, ...]
    goal_literals: Tuple[LiteralTemplate, ...]
    goal_clauses: Tuple[ClauseTemplate, ...]


# --- parsing -----------------------------------------------------------------

def _parse_typed_list(items: Sequence[SExpr]) -> Tuple[Tuple[str, str], ...]:
    """Parse "a b - t c d - t2 e" into ((a,t),(b,t),(c,t2),(d,t2),(e,object))."""
    out: List[Tuple[str, str]] = []
    pending: List[str] = []
    i = 0
    while i < len(items):
        item = items[i]
        if not isinstance(item, Sym):
            raise _err(item, "expected a name in typed list")
        if item == "-":
            if i + 1 >= len(items) or not isinstance(items[i + 1], Sym):
                raise _err(item, "expected a type after '-'")
            t = str(items[i + 1])
            out += [(name, t) for name in pending]
            pending = []
            i += 2
        else:
            pending.append(str(item))
            i += 1
    out += [(name, "object") for name in pending]
    return tuple(out)


def _parse_atom(node: SExpr) -> LiteralTemplate:
    if not isinstance(node, list) or not node or \
            not all(isinstance(x, Sym) for x in node):
        raise _err(node, "expected an atom (predicate arguments...)")
    return LiteralTemplate(str(node[0]), tuple(str(x) for x in node[1:]),
                           True)


def _parse_literal(node: SExpr) -> LiteralTemplate:
    if _head(node) == "not":
        if len(node) != 2:
            raise _err(node, "'not' takes exactly one atom")
        return _parse_atom(node[1])._replace(positive=False)
    return _parse_atom(node)


def _conjuncts(node: SExpr) -> List[SExpr]:
    """The conjuncts of a formula: nested (and ...) are flattened, and ()
    is the empty conjunction."""
    if isinstance(node, list) and not node:
        return []
    if _head(node) == "and":
        return [c for sub in node[1:] for c in _conjuncts(sub)]
    return [node]


def _disjuncts(node: SExpr) -> ClauseTemplate:
    """The members of (or ...) or (oneof ...), at least one."""
    if len(node) < 2:
        raise _err(node, f"'{node[0]}' needs at least one literal")
    return tuple(_parse_literal(x) for x in node[1:])


def _init_clauses(entry: SExpr) -> List[ClauseTemplate]:
    """An :init entry as clauses: a literal is a unit clause, (or ...) a
    clause, (oneof ...) the disjunction plus the pairwise exclusions, and
    (unknown f) the clause f | ~f, which mentions f and constrains nothing."""
    head = _head(entry)
    if head == "or":
        return [_disjuncts(entry)]
    if head == "oneof":
        if len(entry) < 3:
            raise _err(entry, "'oneof' needs at least two members")
        lits = _disjuncts(entry)
        negated = [l._replace(positive=not l.positive) for l in lits]
        return [lits, *itertools.combinations(negated, 2)]
    if head == "unknown":
        if len(entry) != 2:
            raise _err(entry, "'unknown' takes one atom")
        atom = _parse_atom(entry[1])
        return [(atom, atom._replace(positive=False))]
    return [(_parse_literal(entry),)]


def _parse_effect(node: SExpr) -> EffNode:
    head = _head(node)
    if head == "and":
        return EffAnd(tuple(_parse_effect(sub) for sub in node[1:]))
    if head == "when":
        if len(node) != 3:
            raise _err(node, "'when' takes a condition and an effect")
        return EffWhen(tuple(map(_parse_literal, _conjuncts(node[1]))),
                       _parse_effect(node[2]))
    if head == "forall":
        if len(node) != 3:
            raise _err(node, "'forall' takes a variable list and an effect")
        typed = _parse_typed_list(node[1])
        if len(typed) != 1:
            raise _err(node, "one variable per 'forall' is supported")
        var, typ = typed[0]
        return EffForall(var, typ, _parse_effect(node[2]))
    if head == "oneof":
        if len(node) < 3:
            raise _err(node, "'oneof' needs at least two outcomes")
        return EffOneof(tuple(_parse_effect(sub) for sub in node[1:]))
    if head in ("increase", "decrease", "assign", "scale-up", "scale-down"):
        raise UnsupportedFeature(f"numeric effect '{head}' is not supported")
    return _parse_literal(node)


def _sections(body: Sequence[SExpr]) -> List[List[SExpr]]:
    return [item for item in body if isinstance(item, list)]


def _define_name(sexpr: SExpr, kind: str) -> str:
    """NAME of the header (define (KIND NAME) ...)."""
    if _head(sexpr) != "define" or len(sexpr) < 2 \
            or _head(sexpr[1]) != kind or len(sexpr[1]) != 2 \
            or not isinstance(sexpr[1][1], Sym):
        raise _err(sexpr, f"expected (define ({kind} NAME) ...)")
    return str(sexpr[1][1])


def _parse_domain(sexpr: SExpr) -> DomainAst:
    name = _define_name(sexpr, "domain")
    types: Dict[str, str] = {}
    constants: Tuple[Tuple[str, str], ...] = ()
    predicates: Dict[str, Tuple[str, ...]] = {}
    actions: List[ActionSchema] = []
    for section in _sections(sexpr[2:]):
        key = _head(section)
        if key == ":requirements":
            pass  # the input subset is fixed; the flags change nothing
        elif key == ":types":
            for t, parent in _parse_typed_list(section[1:]):
                types[t] = parent
        elif key == ":constants":
            constants = constants + _parse_typed_list(section[1:])
        elif key == ":predicates":
            for p in section[1:]:
                if not _head(p):
                    raise _err(p, "expected a predicate declaration "
                                  "(name parameters...)")
                ptypes = tuple(t for _, t in _parse_typed_list(p[1:]))
                predicates[str(p[0])] = ptypes
        elif key == ":action":
            actions.append(_parse_action(section))
        elif key in (":functions", ":derived", ":constraints"):
            raise UnsupportedFeature(f"section '{key}' is not supported")
        else:
            raise _err(section, f"unknown domain section '{key}'")
    return DomainAst(name, types, constants, predicates, tuple(actions))


def _parse_action(section: Sequence[SExpr]) -> ActionSchema:
    if len(section) < 2 or not isinstance(section[1], Sym):
        raise _err(section, "expected an action name")
    name = str(section[1])
    params: Tuple[Tuple[str, str], ...] = ()
    precondition: Tuple[LiteralTemplate, ...] = ()
    effect: EffNode = EffAnd(())
    i = 2
    while i < len(section):
        key = section[i]
        if not isinstance(key, Sym) or not key.startswith(":"):
            raise _err(key, "expected an action keyword")
        if i + 1 >= len(section):
            raise _err(key, f"'{key}' needs a value")
        value = section[i + 1]
        if key == ":parameters":
            if not isinstance(value, list):
                raise _err(value, ":parameters needs a list")
            params = _parse_typed_list(value)
        elif key == ":precondition":
            precondition = tuple(map(_parse_literal, _conjuncts(value)))
        elif key == ":effect":
            effect = _parse_effect(value)
        else:
            raise UnsupportedFeature(f"action keyword '{key}' is not supported")
        i += 2
    return ActionSchema(name, params, precondition, effect)


def _parse_problem(sexpr: SExpr) -> ProblemAst:
    name = _define_name(sexpr, "problem")
    domain_name = ""
    objects: Tuple[Tuple[str, str], ...] = ()
    init: List[ClauseTemplate] = []
    goal_literals: List[LiteralTemplate] = []
    goal_clauses: List[ClauseTemplate] = []
    for section in _sections(sexpr[2:]):
        key = _head(section)
        if key == ":domain":
            if len(section) != 2 or not isinstance(section[1], Sym):
                raise _err(section, "':domain' takes one name")
            domain_name = section[1]
        elif key == ":objects":
            objects = objects + _parse_typed_list(section[1:])
        elif key == ":init":
            for entry in section[1:]:
                init += _init_clauses(entry)
        elif key == ":goal":
            if len(section) != 2:
                raise _err(section, "':goal' takes one formula")
            for part in _conjuncts(section[1]):
                if _head(part) == "or":
                    goal_clauses.append(_disjuncts(part))
                else:
                    goal_literals.append(_parse_literal(part))
        else:
            raise _err(section, f"unknown problem section '{key}'")
    if not domain_name:
        raise _err(sexpr, "expected a (:domain NAME) section")
    return ProblemAst(name, domain_name, objects, tuple(init),
                      tuple(goal_literals), tuple(goal_clauses))


def parse(domain_text: str, problem_text: str) -> Tuple[DomainAst, ProblemAst]:
    domains = parse_sexprs(domain_text)
    problems = parse_sexprs(problem_text)
    if len(domains) != 1:
        raise PddlSyntaxError("expected exactly one (define ...) in the domain")
    if len(problems) != 1:
        raise PddlSyntaxError("expected exactly one (define ...) in the problem")
    domain = _parse_domain(domains[0])
    problem = _parse_problem(problems[0])
    if problem.domain_name != domain.name:
        raise _err(problem.domain_name,
                   f"the problem is for domain '{problem.domain_name}', "
                   f"not '{domain.name}'")
    return domain, problem


# --- grounding ---------------------------------------------------------------

def _objects_by_type(domain: DomainAst, problem: ProblemAst
                     ) -> Dict[str, List[str]]:
    """Type -> its objects, sorted: those declared of it or of a type
    below it, and every object for ``object``.  One walk up the parents
    from each declared type of each object, which stops at the first
    type that holds the object already: a cycle, or the walk from
    another of its types, which went on from there.  Every object joins
    ``object`` after the walks, so that a walk through ``object`` goes
    on to the types that a domain may declare above it."""
    everything = domain.constants + problem.objects
    table: Dict[str, Set[str]] = {}
    for o, t in everything:
        while t is not None and o not in table.setdefault(t, set()):
            table[t].add(o)
            t = domain.types.get(t)
    table["object"] = {o for o, _ in everything}
    return {t: sorted(members) for t, members in table.items()}


def ground_atom_name(predicate: str, args: Sequence[str]) -> str:
    return "-".join([predicate, *args]) if args else predicate


def _unique_name(names: Dict[str, Tuple[str, ...]], kind: str,
                 source: Tuple[str, ...]) -> str:
    """The ground name of ``source`` (a predicate or schema and its
    arguments), entered in ``names``; another source that prints alike,
    a second schema of the same name included, is an input error."""
    name = ground_atom_name(source[0], source[1:])
    first = names.setdefault(name, source)
    if first is not source:
        raise UnsupportedFeature(
            f"the {kind}s ({' '.join(first)}) and ({' '.join(source)}) "
            f"both ground to the name '{name}'")
    return name


class _Grounder:
    def __init__(self, domain: DomainAst, problem: ProblemAst):
        self.domain = domain
        self.rule_count = 0
        self.objects = _objects_by_type(domain, problem)
        # one object per value: each literal, under (predicate, *arguments,
        # sign) and in clauses under its template; each condition, itself
        self.interned: Dict[object, object] = {}
        # ground atom name -> (predicate, *arguments)
        self.fluents: Dict[str, Tuple[str, ...]] = {}
        for pname, ptypes in domain.predicates.items():
            pools = [self.objects.get(t, []) for t in ptypes]
            self._tick(math.prod(map(len, pools)))
            for combo in itertools.product(*pools):
                _unique_name(self.fluents, "atom", (pname, *combo))

    def _tick(self, n: int = 1):
        self.rule_count += n
        if self.rule_count > RULE_CAP:
            raise GroundingBlowup(
                f"grounding exceeded {RULE_CAP} rule instances")

    def _ground_literal(self, t: LiteralTemplate, binding: Dict[str, str],
                        where: str) -> Literal:
        if t.predicate not in self.domain.predicates:
            raise PddlSyntaxError(
                f"undeclared predicate '{t.predicate}' in {where}")
        for a in t.args:
            if a.startswith("?") and a not in binding:
                raise PddlSyntaxError(f"unbound variable '{a}' in {where}")
        args = [binding[a] if a.startswith("?") else a for a in t.args]
        key = (t.predicate, *args, t.positive)
        found = self.interned.get(key)
        if found is None:  # named and type-checked once per literal
            name = ground_atom_name(t.predicate, args)
            if self.fluents.get(name) != key[:-1]:
                raise PddlSyntaxError(
                    f"atom '{name}' uses objects of the wrong type in {where}")
            found = self.interned[key] = Literal(name, t.positive)
        return found

    def clause(self, c: ClauseTemplate, where: str) -> Clause:
        # each oneof member is grounded once, then found under its template
        return frozenset([self.interned.get(l) or self.interned.setdefault(
            l, self._ground_literal(l, {}, where)) for l in c])

    def share(self, condition: Clause) -> Clause:
        return self.interned.setdefault(condition, condition)

    def _walk_effect(self, node: EffNode, binding: Dict[str, str],
                     condition: FrozenSet[Literal], where: str,
                     rules: List[Rule], nondet: List[NondetRule]):
        if isinstance(node, LiteralTemplate):
            self._tick()
            rules.append(Rule(condition,
                              self._ground_literal(node, binding, where)))
        elif isinstance(node, EffAnd):
            for part in node.parts:
                self._walk_effect(part, binding, condition, where, rules,
                                  nondet)
        elif isinstance(node, EffWhen):
            extra = frozenset(self._ground_literal(l, binding, where)
                              for l in node.condition)
            merged = condition | extra
            if not lits_consistent(merged):
                return  # condition can never hold
            self._walk_effect(node.effect, binding, self.share(merged), where,
                              rules, nondet)
        elif isinstance(node, EffForall):
            for obj in self.objects.get(node.type, []):
                inner = dict(binding)
                inner[node.variable] = obj
                self._walk_effect(node.body, inner, condition, where, rules,
                                  nondet)
        elif isinstance(node, EffOneof):
            outcomes = []
            for out_node in node.outcomes:
                out_rules: List[Rule] = []
                out_nondet: List[NondetRule] = []
                self._walk_effect(out_node, binding, frozenset(), where,
                                  out_rules, out_nondet)
                if out_nondet or any(r.condition for r in out_rules):
                    raise UnsupportedFeature(
                        f"nested conditions inside 'oneof' in {where}")
                outcomes.append(frozenset(r.effect for r in out_rules))
            nondet.append(NondetRule(condition, tuple(outcomes)))
        else:  # pragma: no cover
            raise UnsupportedFeature(f"effect node {node!r}")

    def ground_actions(self, source: bool) -> List[Action]:
        out: List[Action] = []
        names: Dict[str, Tuple[str, ...]] = {}
        for schema in self.domain.actions:
            pools = [self.objects.get(t, []) for _, t in schema.params]
            for combo in itertools.product(*pools):
                name = _unique_name(names, "action", (schema.name, *combo))
                if source and is_merge(name):
                    raise UnsupportedFeature(
                        f"action '{name}': names starting with "
                        f"{MERGE_PREFIX!r} are reserved for merge actions")
                binding = {var: obj
                           for (var, _), obj in zip(schema.params, combo)}
                where = f"action {name}"
                pre = frozenset(self._ground_literal(l, binding, where)
                                for l in schema.precondition)
                if not lits_consistent(pre):
                    continue  # never applicable
                rules: List[Rule] = []
                nondet: List[NondetRule] = []
                self._walk_effect(schema.effect, binding,
                                  self.share(frozenset()), where, rules, nondet)
                out.append(Action(name, self.share(pre), tuple(rules),
                                  tuple(nondet)))
        return out


def ground(domain: DomainAst, problem: ProblemAst,
           source: bool) -> ConformantProblem:
    """Ground a parsed problem.  In a ``source`` problem, action names
    starting with ``MERGE_PREFIX`` are an input error: they are reserved
    for the actions a translation adds, which a classical one carries."""
    g = _Grounder(domain, problem)
    actions = g.ground_actions(source)
    init = [g.clause(c, ":init") for c in problem.init]
    goal = g.clause(problem.goal_literals, ":goal")
    goal_clauses = [g.clause(c, ":goal") for c in problem.goal_clauses]
    return conformant_problem(g.fluents, init, actions, goal, goal_clauses)


def load(domain_text: str, problem_text: str) -> ConformantProblem:
    """Parse and ground a source problem."""
    return ground(*parse(domain_text, problem_text), True)


# --- classical emission ------------------------------------------------------

def _emit_literal(l: Literal) -> str:
    return f"({l.fluent})" if l.positive else f"(not ({l.fluent}))"


def _emit_condition(cond: Iterable[Literal]) -> str:
    lits = sorted_lits(cond)
    if len(lits) == 1:
        return _emit_literal(lits[0])
    return "(and " + " ".join(_emit_literal(l) for l in lits) + ")" \
        if lits else "(and)"


def emit_classical(K: ClassicalProblem) -> Tuple[str, str]:
    """Serialize a translated problem as classical PDDL text.

    Every atom becomes a nullary predicate, so parsing and grounding the
    emission reproduces the problem exactly (see load_classical).
    """
    lines = [
        "(define (domain kplan-classical)",
        "  (:requirements :strips :negative-preconditions"
        " :conditional-effects)",
        "  (:predicates",
    ]
    for a in sorted(K.fluents):
        lines.append(f"    ({a})")
    lines.append("  )")
    for action in sorted(K.actions, key=lambda a: a.name):
        lines.append(f"  (:action {action.name}")
        lines.append("    :parameters ()")
        lines.append(f"    :precondition {_emit_condition(action.preconditions)}")
        effects = []
        for r in sorted(action.rules, key=Rule.sort_key):
            if r.condition:
                effects.append(
                    f"(when {_emit_condition(r.condition)} "
                    f"{_emit_literal(r.effect)})")
            else:
                effects.append(_emit_literal(r.effect))
        body = "(and " + " ".join(effects) + ")" if effects else "(and)"
        lines.append(f"    :effect {body}")
        lines.append("  )")
    lines.append(")")
    domain_text = "\n".join(lines) + "\n"

    plines = [
        "(define (problem kplan-classical-1)",
        "  (:domain kplan-classical)",
        "  (:init",
    ]
    for l in sorted_lits(K.init):
        if l.positive:
            plines.append(f"    ({l.fluent})")
    plines.append("  )")
    goal = " ".join(_emit_literal(l) for l in sorted_lits(K.goal))
    plines.append(f"  (:goal (and {goal}))")
    plines.append(")")
    problem_text = "\n".join(plines) + "\n"
    return domain_text, problem_text


def load_classical(domain_text: str, problem_text: str) -> ClassicalProblem:
    """Parse classical PDDL as produced by emit_classical."""
    p = ground(*parse(domain_text, problem_text), False)
    if not p.deterministic:
        raise UnsupportedFeature("classical input cannot contain 'oneof'")
    init: Set[Literal] = set()
    for c in p.init:
        if len(c) != 1 or not next(iter(c)).positive:
            raise UnsupportedFeature(
                "classical :init must list positive ground atoms")
        init |= c
    if p.goal_clauses:
        raise UnsupportedFeature("classical goals must be literal conjunctions")
    return ClassicalProblem(p.fluents, frozenset(init), p.actions, p.goal)


# --- plan files --------------------------------------------------------------

def parse_plan_text(text: str) -> Tuple[str, ...]:
    """One action per line; surrounding parentheses and ';' comments allowed.
    A step that is empty, or that holds a parenthesis or a blank once one
    outer pair of parentheses is stripped, is a syntax error."""
    steps: List[str] = []
    for number, raw in enumerate(text.splitlines(), 1):
        line = raw.split(";", 1)[0].strip()
        if not line:
            continue
        step = line[1:-1].strip() \
            if line.startswith("(") and line.endswith(")") else line
        if not step or any(c in "()" or c.isspace() for c in step):
            raise PddlSyntaxError(
                f"plan steps must be single names: {line!r}", number,
                len(raw) - len(raw.lstrip()) + 1)
        steps.append(step)
    return tuple(steps)


def emit_plan_text(steps: Iterable[str]) -> str:
    return "".join(f"({s})\n" for s in steps)
