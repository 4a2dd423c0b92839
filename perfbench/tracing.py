"""Outside-in tracing for the benchmark's traced run.

`Tracer.install` replaces public `kplan` functions, under the names their
callers look them up by, with wrappers that record a span (op id, span
id, parent span id, name, start, end) and bump layer counters taken from
the return value.  Nothing inside `src/kplan` changes; `uninstall` puts
the original functions back, so untraced ops run the unmodified code.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional, Tuple

Span = Tuple[int, int, Optional[int], str, float, float]

# span name -> per-layer metric that carries its self time
SELF_TIME_METRICS = {
    "cli.main": "cli.main_s",
    "pddl.load": "pddl.load_s",
    "pddl.emit": "pddl.emit_s",
    "pi.prime_implicates": "pi.prime_implicates_s",
    "analysis.build_context": "analysis.build_context_s",
    "analysis.mutex": "analysis.mutex_s",
    "analysis.width": "analysis.width_s",
    "translate.front_end": "translate.front_end_s",
    "translate.spec": "translate.spec_s",
    "translate.ktm": "translate.ktm_s",
    "pipeline.solve": "pipeline.ladder_s",
    "planner.solve": "planner.search_other_s",
    "planner.hadd": "planner.hadd_s",
    "verify.conformant_check": "verify.conformant_check_s",
    "verify.zero_approx": "verify.zero_approx_s",
}

COUNT_METRICS = (
    "pddl.emit_bytes", "pi.clauses", "translate.tags", "translate.merges",
    "translate.atoms", "translate.effects", "planner.expanded",
    "planner.generated", "planner.hadd_calls", "verify.states_checked",
    "pipeline.stages_attempted",
)


def _emit_bytes(c, texts, exc):
    if exc is None:
        c["pddl.emit_bytes"] += sum(len(t.encode()) for t in texts)


def _pi_clauses(c, picnf, exc):
    if exc is None:
        c["pi.clauses"] += len(picnf.clauses)


def _spec_size(c, spec, exc):
    if exc is None:
        c["translate.tags"] += len(spec.tags)
        c["translate.merges"] += len(spec.merges)


def _encoding_size(c, K, exc):
    if exc is None:
        c["translate.atoms"] += len(K.fluents)
        c["translate.effects"] += sum(len(a.rules) for a in K.actions)


def _search(c, result, exc):
    if exc is None:
        c["planner.expanded"] += result.expanded
        c["planner.generated"] += result.generated


def _hadd(c, value, exc):
    c["planner.hadd_calls"] += 1


def _verdict(c, verdict, exc):
    if exc is None:
        c["verify.states_checked"] += verdict.states_checked


def _stages(c, result, exc):
    # a failed ladder raises with the stage trace attached
    stages = result[1]["stages"] if exc is None else getattr(exc, "trace", [])
    c["pipeline.stages_attempted"] += len(stages)
    c["pipeline.stages_solved"] += sum(s["status"] == "solved"
                                       for s in stages)


def _targets(kp) -> List[Tuple[str, Optional[Callable], list]]:
    """(span name, counter hook, [(owner, attribute), ...]) for every
    wrapped function, listed under each name a caller uses."""
    cli, pipeline = kp.cli, kp.pipeline
    return [
        ("cli.main", None, [(cli, "main")]),
        ("pddl.load", None, [(kp.pddl, "load")]),
        ("pddl.emit", _emit_bytes, [(kp.pddl, "emit_classical")]),
        ("pi.prime_implicates", _pi_clauses,
         [(kp.analysis, "prime_implicates"), (kp.verify, "prime_implicates")]),
        ("analysis.build_context", None,
         [(cli, "build_context"), (pipeline, "build_context")]),
        ("analysis.mutex", None, [(kp.analysis, "mutex_set")]),
        ("analysis.width", None, [(cli, "width_of_literal")]),
        ("translate.front_end", None,
         [(cli, "cnf_goal_compile"), (pipeline, "cnf_goal_compile"),
          (kp.translate, "nondet_compile"),
          (pipeline, "inject_reset_effects")]),
        ("translate.spec", _spec_size,
         [(cli, "spec_k0"), (cli, "spec_ki"), (cli, "spec_kmodels"),
          (cli, "spec_ks0"), (pipeline, "spec_ki"),
          (pipeline, "spec_kmodels")]),
        ("translate.ktm", _encoding_size, [(cli, "ktm"), (pipeline, "ktm")]),
        ("pipeline.solve", _stages, [(cli, "pipeline_solve")]),
        ("planner.solve", _search, [(pipeline, "solve")]),
        ("planner.hadd", _hadd, [(kp.planner.Grounded, "hadd")]),
        ("verify.conformant_check", _verdict,
         [(cli, "conformant_check"), (pipeline, "conformant_check")]),
        ("verify.zero_approx", None, [(cli, "zero_approx_run")]),
    ]


class Tracer:
    """Spans and counters of the traced ops, kept in memory."""

    def __init__(self, kp):
        self._kp = kp
        self.spans: List[Span] = []
        self.counts: Dict[int, Counter] = defaultdict(Counter)
        self.op_id = 0
        self._stack: List[int] = []
        self._saved: list = []

    def install(self):
        for name, hook, sites in _targets(self._kp):
            for owner, attr in sites:
                fn = getattr(owner, attr)
                self._saved.append((owner, attr, fn))
                setattr(owner, attr, self._wrap(fn, name, hook))

    def uninstall(self):
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def _wrap(self, fn, name, hook):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            sid = len(spans)
            spans.append(None)  # reserved; filled when the call ends
            stack.append(sid)
            result = exc = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as e:
                exc = e
                raise
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (self.op_id, sid, parent, name, start, end)
                if hook is not None:
                    hook(self.counts[self.op_id], result, exc)
            return result

        return wrapper

    def self_times(self) -> Dict[Tuple[int, str], float]:
        """(op id, span name) -> summed self time: each span's duration
        minus the part its child spans cover."""
        child = Counter()
        for _, _, parent, _, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: Dict[Tuple[int, str], float] = Counter()
        for op, sid, _, name, start, end in self.spans:
            out[op, name] += end - start - child[sid]
        return out

    def dump(self, path, op_names: Dict[int, str]):
        """Write every span as JSON, with op ids mapped to op names."""
        doc = {
            "fields": ["op", "id", "parent", "name", "start", "end"],
            "ops": {str(k): v for k, v in op_names.items()},
            "spans": self.spans,
        }
        path.write_text(json.dumps(doc, separators=(",", ":")) + "\n")
