"""Exception types shared across the toolkit.

Every cap has a dedicated error so that exceeding a limit is always a
reported condition, never a silent truncation.
"""


class KplanError(Exception):
    """Base class for all toolkit errors."""


class CapExceeded(KplanError):
    """Base class for the errors raised when a configured cap is hit."""


# --- core ---------------------------------------------------------------

class PreconditionViolation(KplanError):
    """An action was applied in a state where a precondition does not hold."""


class InconsistentResult(KplanError):
    """Applying an action added a complementary pair of literals.

    This signals an inconsistent problem (simultaneous add and delete of
    the same fluent), not a bug in the caller.
    """


class NotAPossibleInitialState(KplanError):
    """A state handed to restrict() violates the initial clause set."""


# --- pddl ---------------------------------------------------------------

class PddlSyntaxError(KplanError):
    """Malformed input text; carries line/column information."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


class UnsupportedFeature(KplanError):
    """A construct outside the supported input subset was encountered."""


class GroundingBlowup(CapExceeded):
    """Grounding would exceed the fixed rule-instance cap (pddl.RULE_CAP)."""


class UnknownAction(KplanError):
    """A plan file references an action name not present in the problem."""


# --- pi -----------------------------------------------------------------

class InconsistentInit(KplanError):
    """The initial clause set is unsatisfiable (empty clause derived)."""


class PiBlowup(CapExceeded):
    """Prime-implicate computation exceeded the clause-count cap."""


class ValidityUndecidedAtCap(CapExceeded):
    """Model enumeration hit the model cap undecided."""


# --- analysis / translate -----------------------------------------------

class WidthSearchCap(CapExceeded):
    """Width search exceeded the configured subset-size bound."""


class InvalidSpec(KplanError):
    """A translation spec has an invalid merge or inconsistent tag."""


class TooManyInitialStates(CapExceeded):
    """Initial-state enumeration exceeded its cap."""


class TooManyModels(CapExceeded):
    """Per-literal model enumeration exceeded its cap."""


class BasisStateNotFound(KplanError):
    """Basis model search failed; indicates a violated precondition
    (initial clauses not in prime-implicate form, or a non-covering merge)."""


# --- pipeline -----------------------------------------------------------

class NoPlanFound(KplanError):
    """The whole stage ladder failed to produce a valid plan."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace or []


class BudgetExhausted(NoPlanFound):
    """The search budget ran out before a conclusive answer."""
