"""Conformant planning via translation to classical planning.

The toolkit parses a conformant PDDL subset, compiles uncertainty away
with a family of tag/merge translations, solves the result with an
embedded classical planner, and validates plans against brute-force
oracles.
"""

from .errors import (
    BasisStateNotFound,
    BudgetExhausted,
    CapExceeded,
    GroundingBlowup,
    InconsistentInit,
    InconsistentResult,
    InvalidSpec,
    KplanError,
    NoPlanFound,
    NotAPossibleInitialState,
    PddlSyntaxError,
    PiBlowup,
    PreconditionViolation,
    TooManyInitialStates,
    TooManyModels,
    UnknownAction,
    UnsupportedFeature,
    ValidityUndecidedAtCap,
    WidthSearchCap,
)
from .model import (
    Action,
    ClassicalProblem,
    Clause,
    ConformantProblem,
    Literal,
    NondetRule,
    Plan,
    Rule,
    RunResult,
    State,
    apply,
    conformant_problem,
    neg,
    pos,
    restrict,
    run_plan,
)
from .pi import EMPTY_TAG, Merge, PICNF, Tag, prime_implicates
from .analysis import (
    Context,
    MutexSet,
    build_context,
    c_i,
    cover,
    mutex_set,
    relevance,
    relevant_clauses,
    satisfies,
    width,
    width_of_literal,
)
from .translate import (
    TranslationSpec,
    cnf_goal_compile,
    inject_reset_effects,
    ktm,
    make_spec,
    nondet_compile,
    simplify,
    spec_k0,
    spec_ki,
    spec_kmodels,
    spec_ks0,
)
from .planner import SolveResult, SolveStatus, bfs_optimal, solve
from .verify import (
    Basis,
    Verdict,
    belief_bfs,
    build_basis,
    conformant_check,
    initial_states,
    zero_approx_run,
)
from .pipeline import PipelineConfig, pipeline_solve

__version__ = "0.1.0"
