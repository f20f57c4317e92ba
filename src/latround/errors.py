"""Exception types shared across the package, and the enumeration budget
that decides when a scan raises BudgetError."""

import os
from functools import lru_cache

DEFAULT_BUDGET = 10_000_000


class UsageError(ValueError):
    """Malformed input: shape mismatch, empty set, invalid certificate."""


class DomainError(Exception):
    """Structurally valid input outside an operation's mathematical domain.

    Carries an optional witness (a point, or a tuple of points) that
    demonstrates the violation.
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class BudgetError(RuntimeError):
    """An enumeration would exceed the configured budget."""

    def __init__(self, message, budget=None, required=None):
        super().__init__(message)
        self.budget = budget
        self.required = required


class InternalError(RuntimeError):
    """A guaranteed invariant failed; indicates a bug upstream, not bad input."""


def enumeration_budget() -> int:
    """Work budget for enumerating scans; LATROUND_BUDGET overrides it.

    The variable is read on every call, so a change takes effect at once;
    each distinct value is parsed once.
    """
    return _parse_budget(os.environ.get("LATROUND_BUDGET"))


@lru_cache(maxsize=16)
def _parse_budget(raw) -> int:
    """The budget a LATROUND_BUDGET value sets; UsageError, raised on every
    call (an exception is not cached), unless it is a positive integer."""
    if not raw:
        return DEFAULT_BUDGET
    try:
        budget = int(raw)
    except ValueError:
        budget = 0
    if budget < 1:
        raise UsageError(f"LATROUND_BUDGET must be a positive integer, got {raw!r}")
    return budget


def check_budget(required: int, task: str, unit: str) -> None:
    """Raise BudgetError when ``task`` needs more than the enumeration
    budget: ``required`` counts its ``unit``s of work, estimated up
    front."""
    limit = enumeration_budget()
    if required > limit:
        raise BudgetError(
            f"{task} needs {required} {unit}, over the budget of {limit}",
            budget=limit,
            required=required,
        )
