"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: UsageError -> 1, ValidationError (and
subclasses) -> 2, InfeasibleError -> 3.
"""

import json


class RelaySecError(Exception):
    """Base class for all package errors."""


class UsageError(RelaySecError):
    """Caller broke an API contract: unknown label, overlapping sets,
    pattern/axis mismatch, wrong model for an operation.  A data file whose
    shape does not match another's (a coupling's alphabets against the
    model's) is invalid input, a ValidationError."""


class ValidationError(RelaySecError, ValueError):
    """Input data violates a stated invariant (mass, sign, shape, schema)."""


class ModelAssumptionError(ValidationError):
    """A Gaussian closed form was requested outside its validity ordering
    (requires P1 + N1 <= N2, receiver 1 less noisy)."""


class InfeasibleError(RelaySecError):
    """A configuration is internally consistent but infeasible, e.g. a
    pure-noise rate above the compress-forward budget."""

    def __init__(self, message: str, *, limit: float | None = None):
        super().__init__(message)
        self.limit = limit


class BudgetExceededError(ValidationError):
    """A brute-force enumeration would exceed its evaluation budget."""


DEFAULT_BUDGET = 10_000_000  # brute_force_best's; kept here so CLI parsing loads no DMC module


def parse_json(text: str, what: str) -> object:
    """`text` as JSON.  A syntax error is refused naming its line and column; an
    integer too long to convert, or nesting too deep to decode, is refused too."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"{what}: JSON parse failure at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except (ValueError, RecursionError) as exc:
        raise ValidationError(f"{what}: JSON parse failure: {exc}") from exc


def require_json_int(value: object, what: str) -> None:
    """Refuse a JSON value that is not an integer: a float, a string or a bool."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{what} must be an integer, got {value!r}")


def require_json_numbers(value: object, what: str) -> None:
    """Refuse a JSON array of arrays, to any depth, with an entry that is not a number:
    a string, a bool, null or an object.  A JSON integer is a number."""
    stack = [value]
    while stack:
        entry = stack.pop()
        if isinstance(entry, list):
            stack.extend(reversed(entry))
        elif isinstance(entry, bool) or not isinstance(entry, (int, float)):
            raise ValidationError(f"{what} must hold numbers only, got {entry!r}")
